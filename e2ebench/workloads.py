"""The four workloads: one measured pass each, plus output checks.

All four are closed loop with one caller; each timed operation is
followed by a reference probe on the same pinned CPU (see harness.py).
A pass returns raw measurements; ``metrics.py`` turns them into the
reported figures.  README.md says why each workload exists.
"""

from __future__ import annotations

import collections
import gc
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import harness
import oplists
import spans as spans_mod
from harness import OpStats, PhaseClock
from repro.core.dataset import Dataset
from repro.net.client import NetClient
from repro.serve.service import SkylineService

HERE = Path(__file__).resolve().parent
#: Forced-kernel checks per run (answers compared outside timing).
COLD_CHECKS = 48
SCAN_CHECKS = 3
SERVER_START_TIMEOUT_S = 120.0
SERVER_STOP_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = harness.FAILED_OP_SECONDS


class Pass:
    """Raw measurements of one pass of one workload."""

    def __init__(self, workload: str, probe, probe_ref_ns: float, cpus, recorder=None) -> None:
        self.workload = workload
        self.ops: Dict[str, OpStats] = collections.defaultdict(OpStats)
        self.wait = harness.WaitBudget()
        self.clock = PhaseClock(probe, probe_ref_ns, cpus, self.wait)
        # Single long calls are gated on the interpreter probe.
        self.call_gate = harness.CpuGate(
            harness.interp_probe, harness.INTERP_PROBE_REF_NS, cpus, self.wait
        )
        self.recorder = recorder
        self.setup_raw: List[float] = []
        self.setup_norm: List[float] = []
        self.recover_raw: List[float] = []
        self.recover_norm: List[float] = []
        self.timed_ops = 0
        self.windows: List[tuple] = []
        self.routes: collections.Counter = collections.Counter()
        self.cpu_seconds = 0.0
        self.client_cpu_seconds: Optional[float] = None
        self.rss_mb = 0.0
        self.disk_bytes_per_row: Optional[float] = None
        self.cache_delta = None
        self.evictions: Optional[int] = None
        self.checked = 0
        self.errors: List[str] = []
        self.spans: List[tuple] = []

    # -- setup -------------------------------------------------------------
    def setup(self, make: Callable[[int], object], count: int, stop=None):
        """Build ``count`` times under the sampler; keep the last build."""
        built = None
        for i in range(count):
            if built is not None and stop is not None:
                stop(built)
            built, raw, norm = harness.timed_call(lambda: make(i), self.call_gate)
            self.setup_raw.append(raw)
            self.setup_norm.append(norm)
            self.ops["setup"].ok(raw)
        return built

    # -- timed operations ----------------------------------------------------
    def timed(self, kind: str, fn: Callable[[], object]):
        """One timed operation started on a fast vCPU; failures are counted, not raised."""
        self.clock.before()
        index = self.timed_ops
        self.timed_ops += 1
        if self.recorder is not None:
            self.recorder.request = index
        started = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            ended = time.perf_counter_ns()
            self.ops[kind].fail()
            self.error(f"{kind} #{index}: {type(exc).__name__}: {exc}")
            result = None
        else:
            ended = time.perf_counter_ns()
            self.ops[kind].ok((ended - started) / 1e9)
        if self.recorder is not None:
            self.recorder.request = None
        self.windows.append((started, ended))
        return result

    def error(self, text: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(text)
            print(f"  ! {text}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return sum(s.attempted for s in self.ops.values())

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.ops.values())


def _ingest(schema, rows) -> Dataset:
    """A fresh ``Dataset`` over the generated rows (part of set-up).

    Set-up runs from raw rows to ready-to-serve, so every build pays
    row validation and the lazy columnar store the same way; reusing
    one ``Dataset`` would let later builds skip work the first did.
    """
    return Dataset(schema, rows)


def _ids(ids) -> tuple:
    return tuple(sorted(int(i) for i in ids))


def _kernel_check(p: Pass, service, prefs, answers, indexes) -> None:
    """Compare sampled answers with a forced ``kernel`` scan (untimed)."""
    for i in indexes:
        p.checked += 1
        if answers[i] is None:
            continue  # already counted as failed
        expected = _ids(service.query(prefs[i], use_cache=False, route="kernel").ids)
        if answers[i] != expected:
            p.ops["read"].fail_recorded(i)
            p.error(f"read #{i}: answer differs from the forced kernel scan")


def _sample(seed: int, n: int, k: int) -> List[int]:
    return sorted(random.Random(f"check:{seed}").sample(range(n), min(k, n)))


def _read_loop(p: Pass, service, prefs) -> List[Optional[tuple]]:
    answers: List[Optional[tuple]] = []
    p.clock.start()
    for pref in prefs:
        result = p.timed("read", lambda: service.query(pref))
        if result is None:
            answers.append(None)
        else:
            p.routes[result.route] += 1
            answers.append(result.ids)
    p.clock.stop()
    p.cpu_seconds = p.clock.cpu_seconds
    return [None if a is None else _ids(a) for a in answers]


# ---------------------------------------------------------------------------
# cold-indexed
# ---------------------------------------------------------------------------
def run_cold(seed: int, seconds: int, setups: int, cpus, recorder=None, workdir=None) -> Pass:
    dataset, template = oplists.build_dataset(oplists.SMALL_ROWS)
    rows = list(dataset)
    drawer = oplists.PreferenceDrawer(dataset, template)
    prefs = oplists.cold_ops(drawer, seed, seconds)
    p = Pass("cold-indexed", harness.interp_probe, harness.INTERP_PROBE_REF_NS, cpus, recorder)
    service = p.setup(
        lambda i: SkylineService(
            _ingest(dataset.schema, rows), template,
            ipo_k=oplists.IPO_K, cache_capacity=oplists.CACHE_CAPACITY,
        ),
        setups,
    )
    for pref in oplists.warm_preferences(drawer, seed):
        service.query(pref)
    before = service.cache.stats()
    answers = _read_loop(p, service, prefs)
    p.cache_delta = service.cache.stats().delta(before)
    p.rss_mb = harness.peak_rss_mb()
    _kernel_check(p, service, prefs, answers, _sample(seed, len(prefs), COLD_CHECKS))
    service.close()
    return p


# ---------------------------------------------------------------------------
# scan-kernel
# ---------------------------------------------------------------------------
def run_scan(seed: int, seconds: int, setups: int, cpus, recorder=None, workdir=None) -> Pass:
    dataset, template = oplists.build_dataset(oplists.SCAN_ROWS)
    rows = list(dataset)
    drawer = oplists.PreferenceDrawer(dataset, template)
    prefs = oplists.scan_ops(drawer, seed, seconds)
    p = Pass("scan-kernel", harness.VectorProbe(), harness.VECTOR_PROBE_REF_NS, cpus, recorder)
    service = p.setup(
        lambda i: SkylineService(
            _ingest(dataset.schema, rows), template, cache_capacity=0,
            with_tree=False, with_adaptive=False, with_mdc=False,
        ),
        setups,
    )
    # Compiles (or loads) the bitset kernel and does the first pack.
    for pref in oplists.warm_preferences(drawer, seed, count=2):
        service.query(pref)
    answers = _read_loop(p, service, prefs)
    p.rss_mb = harness.peak_rss_mb()
    _kernel_check(p, service, prefs, answers, _sample(seed, len(prefs), SCAN_CHECKS))
    service.close()
    return p


# ---------------------------------------------------------------------------
# wire-hot
# ---------------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_healthy(child: subprocess.Popen, port: int) -> None:
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while time.monotonic() < deadline:
        if child.poll() is not None:
            raise RuntimeError(f"server child exited with {child.returncode} before ready")
        try:
            with NetClient("127.0.0.1", port, timeout=5.0) as client:
                if client.healthz().status == 200:
                    return
        except OSError:
            pass
        time.sleep(0.005)
    raise RuntimeError("server child not ready within the start timeout")


def _stop_child(child: subprocess.Popen) -> None:
    if child.poll() is None:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()


def _ok(response):
    if response.status != 200:
        raise RuntimeError(f"HTTP {response.status}: {response.text[:200]!r}")
    return response


def _evictions(client: NetClient) -> Optional[int]:
    text = client.metrics().text
    for line in text.splitlines():
        if line.startswith("repro_service_cache_evictions_total"):
            return int(float(line.split()[-1]))
    return None


def run_wire(seed: int, seconds: int, setups: int, cpus, recorder=None, workdir=None) -> Pass:
    dataset, template = oplists.build_dataset(oplists.SMALL_ROWS)
    drawer = oplists.PreferenceDrawer(dataset, template)
    ops = oplists.wire_ops(drawer, seed, seconds)
    p = Pass("wire-hot", harness.interp_probe, harness.INTERP_PROBE_REF_NS, cpus)
    net_args = [
        "--points", str(oplists.SMALL_ROWS), "--numeric", str(oplists.NUMERIC),
        "--nominal", str(oplists.NOMINAL), "--cardinality", str(oplists.CARDINALITY),
        "--seed", str(oplists.CORPUS_SEED), "--template-order", str(oplists.TEMPLATE_ORDER),
        "--ipo-k", str(oplists.IPO_K), "--cache-size", str(oplists.CACHE_CAPACITY),
    ]
    spans_path = workdir / "server-spans.jsonl"
    prefix = (
        [sys.executable, str(HERE / "launcher.py"), str(spans_path)]
        if recorder is not None
        else [sys.executable, "-m", "repro.net"]
    )
    logs = []

    def start(i: int):
        port = _free_port()
        log = open(workdir / f"server-{i}.log", "wb")
        logs.append(log)
        child = subprocess.Popen(
            prefix + net_args + ["--listen", f"127.0.0.1:{port}"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=log,
        )
        try:
            _wait_healthy(child, port)
        except BaseException:
            _stop_child(child)
            raise
        return child, port

    child, port = p.setup(start, setups, stop=lambda built: _stop_child(built[0]))
    responses: List[Optional[dict]] = []
    try:
        with NetClient("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S) as client:
            for pref in ops.pool:  # fills the cache: every timed read hits
                _ok(client.query(pref))
            cpu_before = harness.child_cpu_seconds(child.pid)
            p.clock.gate.child_pid = child.pid
            p.clock.start()
            for index in ops.reads:
                pref = ops.pool[index]
                response = p.timed("read", lambda: _ok(client.query(pref)))
                responses.append(None if response is None else response.json)
            p.clock.stop()
            p.cpu_seconds = harness.child_cpu_seconds(child.pid) - cpu_before
            p.client_cpu_seconds = p.clock.cpu_seconds
            p.rss_mb = harness.peak_rss_mb(child.pid)
            p.evictions = _evictions(client)
    finally:
        _stop_child(child)
        for log in logs:
            log.close()
    if recorder is not None:
        p.spans = spans_mod.assign_requests(spans_mod.load_spans(str(spans_path)), p.windows)

    # Output check: every answer against an in-process twin (untimed).
    twin = SkylineService(
        dataset, template, ipo_k=oplists.IPO_K, cache_capacity=oplists.CACHE_CAPACITY
    )
    expected = [_ids(twin.query(pref).ids) for pref in ops.pool]
    twin.close()
    for i, (index, body) in enumerate(zip(ops.reads, responses)):
        if body is None:
            continue
        p.routes[body["route"]] += 1
        p.checked += 1
        if _ids(body["ids"]) != expected[index]:
            p.ops["read"].fail_recorded(i)
            p.error(f"read #{i}: wire answer differs from the in-process twin")
    return p


# ---------------------------------------------------------------------------
# churn-durable
# ---------------------------------------------------------------------------
def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def run_churn(seed: int, seconds: int, setups: int, cpus, recorder=None, workdir=None) -> Pass:
    dataset, template = oplists.build_dataset(oplists.SMALL_ROWS)
    drawer = oplists.PreferenceDrawer(dataset, template)
    ops = oplists.churn_ops(drawer, len(dataset), seed, seconds)
    rows = list(dataset)
    p = Pass("churn-durable", harness.interp_probe, harness.INTERP_PROBE_REF_NS, cpus, recorder)
    dirs = [workdir / f"store-{i}" for i in range(setups)]

    def build(i: int):
        return SkylineService(
            _ingest(dataset.schema, rows), template,
            ipo_k=oplists.IPO_K, cache_capacity=oplists.CACHE_CAPACITY,
            storage_dir=dirs[i], checkpoint_every=oplists.CHECKPOINT_EVERY,
        )

    def retire(service) -> None:
        service.close()
        shutil.rmtree(service.storage.directory)

    service = p.setup(build, setups, stop=retire)
    store_dir = dirs[-1]
    for pref in ops.pool:
        service.query(pref)
    before = service.cache.stats()
    p.clock.start()
    for cycle in ops.cycles:
        report = p.timed("insert", lambda: service.insert_rows(cycle.rows))
        if report is not None and list(report.point_ids) != cycle.expected_ids:
            p.ops["insert"].fail_recorded(len(p.ops["insert"].latencies) - 1)
            p.error(f"insert assigned {report.point_ids}, expected {cycle.expected_ids}")
        # The cycle's four reads are one timed step, as its inserts and
        # deletes are one batch each: a lone cache hit (~30 us) is too
        # short to time steadily between probes.
        results = p.timed("read", lambda: [service.query(ops.pool[i]) for i in cycle.reads])
        for result in results or ():
            p.routes[result.route] += 1
        p.timed("delete", lambda: service.delete_rows(cycle.deletes))
    p.clock.stop()
    p.cpu_seconds = p.clock.cpu_seconds
    p.cache_delta = service.cache.stats().delta(before)
    p.rss_mb = harness.peak_rss_mb()
    live_rows = len(service.data_snapshot())
    p.disk_bytes_per_row = _dir_bytes(store_dir) / live_rows

    # Output checks (untimed): the final answers against a forced kernel
    # scan, then every recovery against the answers before close.
    before_close = [_ids(service.query(pref, use_cache=False).ids) for pref in ops.pool]
    for i, pref in enumerate(ops.pool):
        p.checked += 1
        kernel = _ids(service.query(pref, use_cache=False, route="kernel").ids)
        if kernel != before_close[i]:
            p.ops["check"].fail()
            p.error(f"pool #{i}: served answer differs from the forced kernel scan")
        else:
            p.ops["check"].ok(0.0)
    service.close()
    for _ in range(setups):
        try:
            recovered, raw, norm = harness.timed_call(
                lambda: SkylineService.recover(
                    store_dir, cache_capacity=oplists.CACHE_CAPACITY,
                    checkpoint_every=oplists.CHECKPOINT_EVERY,
                ),
                p.call_gate,
            )
        except Exception as exc:  # noqa: BLE001 - a failed recovery is counted
            p.ops["recover"].fail()
            p.error(f"recover: {type(exc).__name__}: {exc}")
            traceback.print_exc()
            continue
        after = [_ids(recovered.query(pref, use_cache=False).ids) for pref in ops.pool]
        recovered.close()
        p.checked += 1
        if after != before_close:
            p.ops["recover"].fail()
            p.error("recovered answers differ from the answers before close")
            continue
        p.ops["recover"].ok(raw)
        p.recover_raw.append(raw)
        p.recover_norm.append(norm)
    return p


RUNNERS = {
    "wire-hot": run_wire,
    "cold-indexed": run_cold,
    "scan-kernel": run_scan,
    "churn-durable": run_churn,
}


def run_pass(
    name: str, seed: int, seconds: int, setups: int, cpus, workdir: Path, traced: bool
) -> Pass:
    """One pass of ``name``; with ``traced`` the span wrappers are live."""
    recorder = None
    if traced:
        recorder = spans_mod.Recorder()
        if name != "wire-hot":
            spans_mod.install(recorder)
    gc.collect()
    passdir = workdir / ("traced" if traced else "untraced")
    passdir.mkdir(parents=True)
    p = RUNNERS[name](seed, seconds, setups, cpus, recorder=recorder, workdir=passdir)
    if recorder is not None and name != "wire-hot":
        p.spans = list(recorder.spans)
    return p
