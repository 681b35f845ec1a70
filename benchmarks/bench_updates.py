#!/usr/bin/env python
"""Benchmark: incremental skyline maintenance vs full rebuild per update.

A serving deployment must hold the template skyline *current after
every row update* - interleaved queries read it.  Two strategies can
honour that contract:

* **maintain** - :class:`repro.updates.IncrementalSkyline` absorbs each
  insert (one dominance sweep) or delete (exclusive-dominance-region
  recompute) in place;
* **rebuild** - recompute the skyline from scratch with the engine
  kernel after every update (what a materialisation-only deployment
  pays).

This harness streams a churn batch (50/50 insert/delete mix, sized as a
fraction of ``n``) through both strategies and reports the speedup.
Rebuild cost grows with ``n`` per *operation*, so at the larger sizes
the rebuild leg times a sample of evenly spaced operations and
extrapolates (recorded as ``rebuild_ops_measured`` /
``rebuild_extrapolated`` - the per-op cost is independent of the
position in the batch, making the sample unbiased); the incremental leg
is always measured in full.  Correctness is asserted, not assumed: after
the batch, the maintained skyline must equal a from-scratch kernel
recompute of the final state.

Baseline::

    PYTHONPATH=src python benchmarks/bench_updates.py
    PYTHONPATH=src python benchmarks/bench_updates.py \
        --sizes 5000,100000 --churn 0.01 --out BENCH_updates.json
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from typing import Dict, List

from repro.algorithms.sfs import sfs_skyline
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.engine import default_backend_name, get_backend
from repro.updates import DynamicDataset, IncrementalSkyline

DEFAULT_SIZES = (5_000, 100_000)
DEFAULT_CHURNS = (0.01,)

#: Paper Table 4 shape: 3 numeric anti-correlated + 2 nominal Zipfian.
NUM_NUMERIC = 3
NUM_NOMINAL = 2
CARDINALITY = 8

#: Rebuild-leg sampling: measure at most this many from-scratch
#: recomputes per configuration and extrapolate to the full batch.
REBUILD_SAMPLE = 5


def plan_operations(num_points: int, churn: float, seed: int):
    """The deterministic op stream: (kind, row-or-victim) pairs."""
    ops_count = max(1, int(num_points * churn))
    fresh = generate(
        SyntheticConfig(
            num_points=ops_count,
            num_numeric=NUM_NUMERIC,
            num_nominal=NUM_NOMINAL,
            cardinality=CARDINALITY,
            seed=seed + 1,
        )
    )
    rng = random.Random(seed + 2)
    ops = []
    live_estimate = num_points
    for i in range(ops_count):
        if rng.random() < 0.5 and live_estimate > 1:
            ops.append(("delete", rng.randrange(live_estimate)))
            live_estimate -= 1
        else:
            ops.append(("insert", fresh.row(i)))
            live_estimate += 1
    return ops


def apply_ops(data: DynamicDataset, ops, on_insert, on_delete):
    """Replay the op stream; victims are drawn from the live ids."""
    live = list(data.ids)
    for kind, payload in ops:
        if kind == "insert":
            point_id = data.append([payload])[0]
            live.append(point_id)
            on_insert(point_id)
        else:
            victim = live.pop(payload % len(live))
            data.delete([victim])
            on_delete(victim)


def measure_config(num_points: int, churn: float, backend_name: str) -> Dict:
    """Maintain vs rebuild for one (n, churn) cell."""
    backend = get_backend(backend_name)
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
    ops = plan_operations(num_points, churn, seed=7)

    # --- maintain leg: every op absorbed incrementally, fully timed.
    data = DynamicDataset.from_dataset(base)
    sky = IncrementalSkyline(data, template, backend=backend)
    started = time.perf_counter()
    apply_ops(
        data, ops, lambda p: sky.insert([p]), lambda p: sky.delete([p])
    )
    maintain_seconds = time.perf_counter() - started

    # Correctness gate: the maintained skyline equals a from-scratch
    # kernel recompute of the final state.
    final = sorted(
        sfs_skyline(data.canonical_rows, data.ids, sky.table, backend=backend)
    )
    if list(sky.ids) != final:
        raise SystemExit(
            f"maintained skyline diverged at n={num_points}, churn={churn}"
        )

    # --- rebuild leg: recompute from scratch after every op; sampled
    # at large n (per-op cost is position-independent).
    data = DynamicDataset.from_dataset(base)
    table = sky.table
    sample_every = max(1, len(ops) // REBUILD_SAMPLE)
    rebuild_samples: List[float] = []
    op_index = 0

    def rebuild(_point_id):
        nonlocal op_index
        op_index += 1
        if op_index % sample_every == 0:
            started = time.perf_counter()
            sfs_skyline(
                data.canonical_rows, data.ids, table, backend=backend
            )
            rebuild_samples.append(time.perf_counter() - started)

    apply_ops(data, ops, rebuild, rebuild)
    measured = len(rebuild_samples)
    rebuild_seconds = sum(rebuild_samples) / measured * len(ops)
    speedup = rebuild_seconds / maintain_seconds if maintain_seconds else None
    return {
        "num_points": num_points,
        "churn": churn,
        "operations": len(ops),
        "skyline_size": len(final),
        "maintain_seconds": round(maintain_seconds, 6),
        "maintain_us_per_op": round(1e6 * maintain_seconds / len(ops), 2),
        "rebuild_seconds": round(rebuild_seconds, 6),
        "rebuild_ops_measured": measured,
        "rebuild_extrapolated": measured < len(ops),
        "maintain_speedup": round(speedup, 2) if speedup else None,
    }


def run(sizes, churns, backend_name: str) -> Dict:
    """The full report across the size x churn grid."""
    report = {
        "benchmark": "incremental skyline maintenance vs rebuild-per-update",
        "config": {
            "num_numeric": NUM_NUMERIC,
            "num_nominal": NUM_NOMINAL,
            "cardinality": CARDINALITY,
            "distribution": "anticorrelated",
            "op_mix": "50/50 insert/delete, seeded",
            "backend": backend_name,
            "rebuild_sampling": f"up to {REBUILD_SAMPLE} evenly spaced "
            "from-scratch recomputes, extrapolated to the batch",
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
                f"n={n}, churn={churn:.2%}: maintain "
                f"{entry['maintain_seconds']:.3f}s vs rebuild "
                f"{entry['rebuild_seconds']:.3f}s -> "
                f"{entry['maintain_speedup']:.1f}x",
                file=sys.stderr, flush=True,
            )
            report["results"].append(entry)
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
    report = run(sizes, churns, backend_name)
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
