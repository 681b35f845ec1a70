#!/usr/bin/env python
"""Benchmark: crash recovery from snapshot + WAL vs full re-ingest.

A serving deployment that loses its process must come back answering at
the exact pre-crash data version.  Two ways exist to get there:

* **recover** - :meth:`repro.serve.SkylineService.recover`: load the
  latest snapshot (encoded rows read back verbatim, maintained skyline
  ids restored, the IPO-tree and MDC filter regrown from them) and
  replay the committed WAL tail through the incremental mutation path;
* **re-ingest** - what a deployment without ``repro.storage`` pays:
  re-validate and re-encode every base row, rebuild every index from
  scratch, then replay the *entire* mutation history through the
  incremental path to reach the same version.

The harness builds a durable service over ``n`` synthetic rows, streams
a seeded churn batch through it (checkpointing part-way, so recovery
exercises both the snapshot load and a WAL tail), "crashes" it, and
times both strategies to the same final version.  Equivalence is
asserted, not assumed: both services must report the same data version
and return identical answers for a set of template-refining
preferences.

A second, storage-layer **cold-start** section isolates the format-v2
zero-copy claim: an ``n``-slot sidecar snapshot plus a fixed small WAL
tail is restored to kernel-ready columnar state twice - once through
the mmap tier (``mmap="require"``: the borrowed store maps the
column-major ``.npy`` and nothing is decoded) and once through eager
decode (``mmap="off"``, the pre-v2 behaviour).  Both legs run over a
hot page cache (an untimed warm-up pass touches every byte first), so
the ratio measures decode work, not disk.

Baseline::

    PYTHONPATH=src python benchmarks/bench_storage.py
    PYTHONPATH=src python benchmarks/bench_storage.py \
        --sizes 5000,100000 --churn 0.01 \
        --cold-sizes 100000,1000000 --out BENCH_storage.json
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.core.dataset import Dataset
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.queries import generate_preferences
from repro.engine import default_backend_name, get_backend
from repro.serve.service import SkylineService

DEFAULT_SIZES = (5_000, 100_000)
DEFAULT_CHURNS = (0.01,)
DEFAULT_COLD_SIZES = (100_000, 1_000_000)

#: WAL-tail length of the cold-start cells - deliberately fixed and
#: small, because the claim under test is that mmap'd recovery is
#: O(tail), not O(slots).
COLD_TAIL_ROWS = 64

#: Paper Table 4 shape: numeric anti-correlated + nominal Zipfian.
NUM_NUMERIC = 2
NUM_NOMINAL = 2
CARDINALITY = 8

#: Rows per mutation batch in the churn stream (one WAL record each).
BATCH_ROWS = 10

#: The durable leg's automatic checkpoint policy: fold the WAL into a
#: snapshot every this many logged batches.  This is what bounds the
#: recovery-time WAL tail in a real deployment, so the benchmark uses
#: the actual feature instead of a hand-placed checkpoint; the tail
#: recovery replays is ``total_batches mod CHECKPOINT_EVERY``.
CHECKPOINT_EVERY = 8


def plan_batches(num_points: int, churn: float, seed: int) -> List[Dict]:
    """Deterministic mutation batches: 2/1 insert/delete row mix."""
    import random

    rows_total = max(BATCH_ROWS, int(num_points * churn))
    fresh = generate(
        SyntheticConfig(
            num_points=rows_total,
            num_numeric=NUM_NUMERIC,
            num_nominal=NUM_NOMINAL,
            cardinality=CARDINALITY,
            seed=seed + 1,
        )
    )
    rng = random.Random(seed + 2)
    batches: List[Dict] = []
    cursor = 0
    while cursor < rows_total:
        take = min(BATCH_ROWS, rows_total - cursor)
        if rng.random() < 0.33 and batches:
            batches.append({"kind": "delete", "count": max(1, take // 2)})
        else:
            batches.append(
                {
                    "kind": "insert",
                    "rows": [fresh.row(cursor + i) for i in range(take)],
                }
            )
        cursor += take
    return batches


def apply_batches(
    service: SkylineService,
    batches: List[Dict],
    *,
    num_points: int,
    seed: int,
    start: int = 0,
    stop: int = None,
):
    """Apply ``batches[start:stop]`` to ``service``.

    The victim choices of delete batches are a pure function of the
    seed and the stream prefix, so the whole stream is always replayed
    through a *shadow* live-id list and only the requested window hits
    the service - every leg (durable setup, post-checkpoint tail,
    re-ingest) therefore applies a byte-identical history.
    """
    import random

    rng = random.Random(seed + 3)
    stop = len(batches) if stop is None else stop
    live = list(range(num_points))
    next_id = num_points
    for index, batch in enumerate(batches[:stop]):
        if batch["kind"] == "insert":
            ids = list(range(next_id, next_id + len(batch["rows"])))
            next_id += len(batch["rows"])
            if index >= start:
                service.insert_rows(batch["rows"])
            live.extend(ids)
        else:
            victims = rng.sample(live, batch["count"])
            for victim in victims:
                live.remove(victim)
            if index >= start:
                service.delete_rows(victims)


def service_kwargs(backend_name: str) -> Dict:
    """One service configuration shared by every leg (fairness)."""
    return {
        "backend": get_backend(backend_name),
        "cache_capacity": 64,
    }


def measure_config(num_points: int, churn: float, backend_name: str) -> Dict:
    """Recover vs re-ingest for one (n, churn) cell."""
    base = generate(
        SyntheticConfig(
            num_points=num_points,
            num_numeric=NUM_NUMERIC,
            num_nominal=NUM_NOMINAL,
            cardinality=CARDINALITY,
            distribution="anticorrelated",
            seed=7,
        )
    )
    template = frequent_value_template(base)
    batches = plan_batches(num_points, churn, seed=7)
    prefs = generate_preferences(
        base, order=2, count=5, template=template, seed=9
    )

    workdir = Path(tempfile.mkdtemp(prefix="bench_storage_"))
    try:
        state_dir = workdir / "state"
        # --- setup (untimed): durable service under the automatic
        # checkpoint policy absorbs the churn stream, then "crashes".
        durable = SkylineService(
            base, template, storage_dir=state_dir,
            checkpoint_every=CHECKPOINT_EVERY,
            **service_kwargs(backend_name),
        )
        apply_batches(durable, batches, num_points=num_points, seed=7)
        final_version = durable.version
        wal_records = durable.storage.ops_since_checkpoint
        snapshot_bytes = sum(
            p.stat().st_size for p in state_dir.glob("snapshot-*")
        )
        del durable  # crash

        # --- recover leg.
        started = time.perf_counter()
        recovered = SkylineService.recover(
            state_dir, **service_kwargs(backend_name)
        )
        recover_seconds = time.perf_counter() - started

        # --- re-ingest leg: re-encode the base rows, rebuild every
        # structure, replay the full history incrementally.
        raw_rows = [list(row) for row in base]
        started = time.perf_counter()
        reingested = SkylineService(
            Dataset(base.schema, raw_rows), template,
            **service_kwargs(backend_name),
        )
        apply_batches(reingested, batches, num_points=num_points, seed=7)
        reingest_seconds = time.perf_counter() - started

        # --- equivalence gate.
        if recovered.version != final_version != 0:
            raise SystemExit(
                f"recovered version {recovered.version} != pre-crash "
                f"{final_version}"
            )
        if reingested.version != final_version:
            raise SystemExit("re-ingest did not reach the pre-crash version")
        for pref in prefs + [None]:
            a = recovered.query(pref, use_cache=False).ids
            b = reingested.query(pref, use_cache=False).ids
            if a != b:
                raise SystemExit(
                    f"recovered and re-ingested answers diverged for "
                    f"{pref}: {a} vs {b}"
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = reingest_seconds / recover_seconds if recover_seconds else None
    return {
        "num_points": num_points,
        "churn": churn,
        "mutation_batches": len(batches),
        "wal_tail_records": wal_records,
        "snapshot_bytes": snapshot_bytes,
        "final_version": final_version,
        "recover_seconds": round(recover_seconds, 6),
        "reingest_seconds": round(reingest_seconds, 6),
        "recovery_speedup": round(speedup, 2) if speedup else None,
    }


def _cold_restore(path: Path, mode: str, tail_rows: List[tuple]):
    """Snapshot -> kernel-ready state: restore, replay tail, build columns.

    Returns the restored dataset (so the caller can compare answers and
    close any borrowed mapping).  Accessing ``columns`` is what forces
    the work the two tiers split on: the eager tier decodes every slot,
    the mmap tier hands the kernels a view over the mapped matrix.
    """
    from repro.storage import read_snapshot, restore_dataset

    document = read_snapshot(path, mmap=mode)
    data = restore_dataset(document["data"])
    data.append(tail_rows)
    store = data.columns
    # Touch the transposed kernel view so lazily-built stores cannot
    # defer their materialisation past the timer.
    _ = store.matrix_t.shape
    return data


def measure_cold_start(num_points: int) -> "Dict | None":
    """Mmap'd vs decode-everything recovery for one n (hot page cache).

    Returns ``None`` when there is nothing to map (no NumPy, so the
    snapshot has no ``.npy`` sidecar and both tiers would measure the
    same inline-JSON path).
    """
    from repro.engine.columnar import numpy_available

    if not numpy_available():
        return None
    from repro.storage import dataset_state, write_snapshot
    from repro.updates.dataset import DynamicDataset

    base = generate(
        SyntheticConfig(
            num_points=num_points,
            num_numeric=NUM_NUMERIC,
            num_nominal=NUM_NOMINAL,
            cardinality=CARDINALITY,
            distribution="anticorrelated",
            seed=13,
        )
    )
    tail_source = generate(
        SyntheticConfig(
            num_points=COLD_TAIL_ROWS,
            num_numeric=NUM_NUMERIC,
            num_nominal=NUM_NOMINAL,
            cardinality=CARDINALITY,
            seed=14,
        )
    )
    tail_rows = [tail_source.row(i) for i in range(COLD_TAIL_ROWS)]

    workdir = Path(tempfile.mkdtemp(prefix="bench_storage_cold_"))
    closers = []
    try:
        path = workdir / "snapshot-1.json"
        write_snapshot(
            path, {"data": dataset_state(DynamicDataset.from_dataset(base))}
        )
        sidecar = path.with_suffix(".npy")
        if not sidecar.exists():  # below the binary-payload threshold
            return None
        sidecar_bytes = sidecar.stat().st_size

        # Warm-up (untimed): touches the document, the sidecar pages
        # and every import, so both timed legs run over a hot cache.
        warm = _cold_restore(path, "require", tail_rows)
        closers.append(warm.base_store)

        started = time.perf_counter()
        eager = _cold_restore(path, "off", tail_rows)
        eager_seconds = time.perf_counter() - started

        started = time.perf_counter()
        mapped = _cold_restore(path, "require", tail_rows)
        mmap_seconds = time.perf_counter() - started
        closers.append(mapped.base_store)

        # Equivalence gate: both tiers restored the same rows.
        total = num_points + COLD_TAIL_ROWS
        if len(eager) != total or len(mapped) != total:
            raise SystemExit("cold-start tiers disagree on the row count")
        for slot in (0, num_points // 2, num_points - 1, total - 1):
            if eager.row(slot) != mapped.row(slot):
                raise SystemExit(
                    f"cold-start tiers diverged at slot {slot}: "
                    f"{eager.row(slot)} vs {mapped.row(slot)}"
                )
    finally:
        for store in closers:
            close = getattr(store, "close", None)
            if close is not None:
                close()
        shutil.rmtree(workdir, ignore_errors=True)

    speedup = eager_seconds / mmap_seconds if mmap_seconds else None
    return {
        "num_points": num_points,
        "wal_tail_rows": COLD_TAIL_ROWS,
        "sidecar_bytes": sidecar_bytes,
        "mmap_recover_seconds": round(mmap_seconds, 6),
        "eager_recover_seconds": round(eager_seconds, 6),
        "mmap_speedup": round(speedup, 2) if speedup else None,
    }


def run(sizes, churns, backend_name: str, cold_sizes=()) -> Dict:
    """The full report across the size x churn grid."""
    report = {
        "benchmark": "durable snapshot + WAL recovery vs full re-ingest",
        "config": {
            "num_numeric": NUM_NUMERIC,
            "num_nominal": NUM_NOMINAL,
            "cardinality": CARDINALITY,
            "distribution": "anticorrelated",
            "batch_rows": BATCH_ROWS,
            "checkpoint_every": CHECKPOINT_EVERY,
            "backend": backend_name,
        },
        "python": platform.python_version(),
        "results": [],
    }
    for n in sizes:
        for churn in churns:
            print(
                f"n={n}, churn={churn:.2%}: measuring ...",
                file=sys.stderr, flush=True,
            )
            entry = measure_config(n, churn, backend_name)
            print(
                f"n={n}, churn={churn:.2%}: recover "
                f"{entry['recover_seconds']:.3f}s vs re-ingest "
                f"{entry['reingest_seconds']:.3f}s -> "
                f"{entry['recovery_speedup']:.1f}x",
                file=sys.stderr, flush=True,
            )
            report["results"].append(entry)
    cold_entries = []
    for n in cold_sizes:
        print(f"cold-start n={n}: measuring ...", file=sys.stderr, flush=True)
        entry = measure_cold_start(n)
        if entry is None:
            print(
                f"cold-start n={n}: skipped (no NumPy sidecar to map)",
                file=sys.stderr, flush=True,
            )
            continue
        print(
            f"cold-start n={n}: mmap {entry['mmap_recover_seconds']:.3f}s "
            f"vs eager {entry['eager_recover_seconds']:.3f}s -> "
            f"{entry['mmap_speedup']:.1f}x",
            file=sys.stderr, flush=True,
        )
        cold_entries.append(entry)
    if cold_entries:
        report["cold_start"] = cold_entries
    return report


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in DEFAULT_SIZES),
        help="comma-separated dataset sizes (default: 5000,100000)",
    )
    parser.add_argument(
        "--churn",
        default=",".join(str(c) for c in DEFAULT_CHURNS),
        help="comma-separated churn fractions of n (default: 0.01)",
    )
    parser.add_argument(
        "--cold-sizes",
        default=",".join(str(n) for n in DEFAULT_COLD_SIZES),
        help=(
            "comma-separated sizes for the mmap-vs-eager cold-start "
            "section (default: 100000,1000000; empty string to skip)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        help="execution backend (default: process default)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON baseline here (default: print to stdout)",
    )
    args = parser.parse_args(argv)
    backend_name = args.backend or default_backend_name()
    sizes = [int(s) for s in args.sizes.split(",") if s]
    churns = [float(c) for c in args.churn.split(",") if c]
    cold_sizes = [int(s) for s in args.cold_sizes.split(",") if s]
    report = run(sizes, churns, backend_name, cold_sizes=cold_sizes)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(payload + "\n")
        print(f"baseline written to {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
