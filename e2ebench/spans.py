"""Span recorder for the traced run, and the wrappers that feed it.

The program is not instrumented.  For the traced run the benchmark
wraps the public entry points of each layer module (listed in
``TARGETS``) from its own files; every call becomes a span with a
name, start, end, parent span and request id.  Spans stay in memory
and are written out when the run ends.  A layer's self time is its
span's duration minus the time its child spans cover (children of one
span run sequentially on the span's thread, so their durations add).

For the wire workload the server child starts through
``launcher.py``, which installs the same wrappers in the child and
dumps its spans on exit; the harness attributes them to requests by
time window (``perf_counter_ns`` is the system-wide monotonic clock).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module, attribute path).  Module-level functions are
#: patched in the module that *calls* them (``from x import f`` binds a
#: name in the caller's namespace).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("net.codec", "repro.net.protocol", "parse_json_body"),
    ("net.codec", "repro.net.protocol", "decode_query"),
    ("net.codec", "repro.net.protocol", "encode_serve_result"),
    ("net.codec", "repro.net.protocol", "dump_body"),
    ("net.render", "repro.net.server", "render_response"),
    ("core.canonicalize", "repro.serve.service", "canonical_cache_key"),
    ("core.rank_compile", "repro.core.dominance", "RankTable.compile"),
    ("serve.query", "repro.serve.service", "SkylineService.query"),
    ("serve.insert", "repro.serve.service", "SkylineService.insert_rows"),
    ("serve.delete", "repro.serve.service", "SkylineService.delete_rows"),
    ("serve.recover", "repro.serve.service", "SkylineService.recover"),
    ("serve.cache.lookup", "repro.serve.cache", "SemanticCache.lookup"),
    ("serve.cache.revise", "repro.serve.cache", "SemanticCache.revise"),
    ("serve.planner.plan", "repro.serve.planner", "Planner.plan"),
    ("ipo.query", "repro.ipo.tree", "IPOTree.query"),
    ("ipo.build", "repro.ipo.tree", "IPOTree.build"),
    ("ipo.refresh", "repro.ipo.tree", "IPOTree.refresh"),
    ("mdc.query", "repro.mdc.filter", "MDCFilter.query"),
    ("mdc.build", "repro.mdc.filter", "MDCFilter.__init__"),
    ("adaptive.query", "repro.adaptive.adaptive_sfs", "AdaptiveSFS.query"),
    ("adaptive.build", "repro.adaptive.adaptive_sfs", "AdaptiveSFS.__init__"),
    ("adaptive.insert", "repro.adaptive.adaptive_sfs", "AdaptiveSFS.insert"),
    ("adaptive.delete", "repro.adaptive.adaptive_sfs", "AdaptiveSFS.delete"),
    ("engine.prepare", "repro.engine.python_backend", "PythonBackend.prepare"),
    ("engine.prepare", "repro.engine.numpy_backend", "NumpyBackend.prepare"),
    ("engine.prepare", "repro.engine.bitset_backend", "BitsetBackend.prepare"),
    ("engine.skyline", "repro.engine.python_backend", "PythonBackend.skyline"),
    ("engine.skyline", "repro.engine.numpy_backend", "NumpyBackend.skyline"),
    ("engine.skyline", "repro.engine.bitset_backend", "BitsetBackend.skyline"),
    ("updates.dataset.append", "repro.updates.dataset", "DynamicDataset.append_encoded"),
    ("updates.incremental.insert", "repro.updates.incremental", "IncrementalSkyline.insert"),
    ("updates.incremental.delete", "repro.updates.incremental", "IncrementalSkyline.delete"),
    ("storage.wal.append", "repro.storage.wal", "WriteAheadLog.append"),
    ("storage.checkpoint", "repro.storage.store", "DurableStore.checkpoint"),
    ("storage.read_snapshot", "repro.storage.store", "read_snapshot"),
    ("storage.restore_dataset", "repro.serve.service", "restore_dataset"),
)

#: Span fields, in the order they are stored and written out.
FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "request", "size_in", "size_out")


class Recorder:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.request: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        sized = name == "engine.skyline"
        wal = name == "storage.wal.append"
        checkpoint = name == "storage.checkpoint"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            size_in = size_out = None
            if sized:
                size_in = len(args[2])
            elif wal:
                size_in = args[0].size_bytes
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            if sized:
                size_out = len(result)
            elif wal:
                size_out = args[0].size_bytes - size_in
            elif checkpoint:
                size_out = _snapshot_bytes(result)
            self.spans.append((span_id, name, start, end, parent, self.request, size_in, size_out))
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON list per line."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _snapshot_bytes(path) -> int:
    """Bytes of a written snapshot document plus its ``.npy`` sidecar."""
    sidecar = path.with_suffix(".npy")
    return path.stat().st_size + (sidecar.stat().st_size if sidecar.exists() else 0)


def load_spans(path: str) -> List[tuple]:
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]


def install(recorder: Recorder) -> None:
    """Patch every target with a recording wrapper (idempotent per name)."""
    for name, module_name, attr_path in TARGETS:
        module = importlib.import_module(module_name)
        owner_path, _, attr = attr_path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
        elif isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, recorder.wrap(name, raw))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------
def self_times(spans: Sequence[tuple]) -> Dict[int, int]:
    """Span id -> self time in ns (duration minus direct children)."""
    child_ns: Dict[int, int] = {}
    for span in spans:
        parent = span[4]
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + span[3] - span[2]
    return {s[0]: (s[3] - s[2]) - child_ns.get(s[0], 0) for s in spans}


def ancestors(spans: Sequence[tuple]) -> Dict[int, List[str]]:
    """Span id -> names of its ancestors (nearest first)."""
    by_id = {s[0]: s for s in spans}
    out: Dict[int, List[str]] = {}
    for span in spans:
        names, parent = [], span[4]
        while parent is not None and parent in by_id:
            names.append(by_id[parent][1])
            parent = by_id[parent][4]
        out[span[0]] = names
    return out


def assign_requests(
    spans: Sequence[tuple], windows: Sequence[Tuple[int, int]]
) -> List[tuple]:
    """Stamp server-side spans with the client request whose window holds them.

    ``windows[i]`` is ``(send_ns, receive_ns)`` of client request ``i``;
    with one closed-loop connection the windows do not overlap, so each
    span falls into at most one.  Spans outside every window (start-up,
    warm-up) get request ``None``.
    """
    import bisect

    starts = [w[0] for w in windows]
    out = []
    for span in spans:
        i = bisect.bisect_right(starts, span[2]) - 1
        request = i if i >= 0 and span[3] <= windows[i][1] else None
        out.append(span[:5] + (request,) + span[6:])
    return out


def phase_spans(spans: Iterable[tuple]) -> List[tuple]:
    """Spans recorded inside the timed phase (they carry a request id)."""
    return [s for s in spans if s[5] is not None]
