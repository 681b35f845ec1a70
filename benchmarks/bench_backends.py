#!/usr/bin/env python
"""Micro-benchmark: skyline wall-clock, python vs numpy vs bitset.

Measures the end-to-end SFS skyline (presort + scan) over synthetic
workloads at n up to 1M with d = 6 (3 numeric anti-correlated
dimensions - the paper's Table 4 default - plus 3 nominal Zipfian
dimensions, full-order preference on each nominal attribute so the
partial order exercises the rank-remap path), using the
:mod:`repro.bench.measure` machinery.

Three backends are compared per size:

* ``python`` - the tuple-at-a-time reference (skipped above
  ``--python-cap`` rows, where it would run for minutes);
* ``numpy`` - the columnar block kernels;
* ``bitset`` - the bit-parallel packed kernels, A/B'd with the
  compiled C sweep disabled (``bitset_nokern_seconds`` is the pure
  numpy-uint64 tier), so the report separates the packing win from
  the compiled-kernel win.

Every measured backend is cross-checked for the identical skyline id
set on every size, the kernel availability of the host is recorded,
and the recorded baseline lives in ``BENCH_backends.json`` at the repo
root (recorded with the second command)::

    PYTHONPATH=src python benchmarks/bench_backends.py
    PYTHONPATH=src python benchmarks/bench_backends.py \
        --repeats 3 --out BENCH_backends.json

All vectorized columns time the *query-time* work: the columnar store
is part of the dataset (built lazily once, reused by every query), so
it is warmed before the clock starts, exactly as a serving deployment
would see it.  Two timings per vectorized backend:

* ``*_seconds`` (warm) reuse one compiled table across repeats, so
  best-of hits the table's rank-remap cache;
* ``*_cold_seconds`` compile a fresh ``RankTable`` per repeat (outside
  the clock), as the serving layer does per query: no remap is reused.
  The bitset backend's per-store packing (numeric buckets, transposed
  value ids) is already built by then, exactly as in a service that
  has answered one scan.  ``bitset_cold_over_numpy_cold`` is the
  ratio a served query sees.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Dict, List, Optional

from repro.algorithms.sfs import sfs_skyline
from repro.bench.measure import timed
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.datagen.generator import SyntheticConfig, generate
from repro.engine import (
    backend_status,
    get_backend,
    make_bitset_backend,
    numpy_available,
)

DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)

#: Above this many rows the tuple-at-a-time python backend is skipped
#: (its column would take minutes and teaches nothing new).
DEFAULT_PYTHON_CAP = 100_000

#: d = 6: three independent numeric dimensions, three nominal ones.
NUM_NUMERIC = 3
NUM_NOMINAL = 3
CARDINALITY = 8


def build_workload(num_points: int, seed: int = 0):
    """Dataset + compiled full-order rank table for one size."""
    config = SyntheticConfig(
        num_points=num_points,
        num_numeric=NUM_NUMERIC,
        num_nominal=NUM_NOMINAL,
        cardinality=CARDINALITY,
        distribution="anticorrelated",
        seed=seed,
    )
    dataset = generate(config)
    # Full-order implicit preference per nominal attribute (domain
    # order).  Order x = c is the paper's heaviest per-dimension query
    # shape and keeps the skyline bounded even at 1M points.
    prefs = {
        name: ImplicitPreference(dataset.schema.spec(name).domain)
        for name in dataset.schema.nominal_names
    }
    table = RankTable.compile(dataset.schema, Preference(prefs))
    return dataset, table


def measure_backend(dataset, table, backend, repeats: int, cold=False):
    """Best-of-``repeats`` skyline wall-clock for one backend.

    ``backend`` is a name or an instance (the A/B variants pass
    configured instances).  ``cold`` compiles a fresh table per repeat
    (see the module docstring).
    """
    backend = get_backend(backend)
    store = dataset.columns if backend.vectorized else None
    rows = dataset.canonical_rows
    best = float("inf")
    result: List[int] = []
    for _ in range(max(1, repeats)):
        query_table = (
            RankTable.compile(dataset.schema, table.preference)
            if cold
            else table
        )
        result, seconds = timed(
            lambda: sfs_skyline(
                rows, dataset.ids, query_table, backend=backend, store=store
            )
        )
        best = min(best, seconds)
    return sorted(result), best


def run(sizes, repeats: int, python_cap: int) -> Dict:
    bitset = get_backend("bitset")
    report = {
        "benchmark": "sfs skyline wall-clock, python vs numpy vs bitset",
        "config": {
            "num_numeric": NUM_NUMERIC,
            "num_nominal": NUM_NOMINAL,
            "dimensions": NUM_NUMERIC + NUM_NOMINAL,
            "cardinality": CARDINALITY,
            "distribution": "anticorrelated",
            "preference": "full order per nominal attribute",
            "repeats": repeats,
            "python_cap": python_cap,
            "timing": "best of repeats; columnar store warmed; warm "
            "columns reuse one table (rank remap cached after the first "
            "repeat), *_cold_seconds compile a fresh table per repeat "
            "as a served query does",
        },
        "python": platform.python_version(),
        "bitset_status": str(backend_status("bitset")),
        "bitset_compiled": bitset.compiled,
        "results": [],
    }
    for n in sizes:
        print(f"n={n}: generating ...", file=sys.stderr, flush=True)
        dataset, table = build_workload(n)
        numpy_ids, numpy_seconds = measure_backend(
            dataset, table, "numpy", repeats
        )
        print(
            f"n={n}: numpy {numpy_seconds:.3f}s "
            f"(|SKY|={len(numpy_ids)}); running bitset ...",
            file=sys.stderr,
            flush=True,
        )
        bitset_ids, bitset_seconds = measure_backend(
            dataset, table, "bitset", repeats
        )
        if bitset_ids != numpy_ids:
            raise SystemExit(
                f"backend mismatch at n={n}: bitset found "
                f"{len(bitset_ids)} vs numpy {len(numpy_ids)} points"
            )
        numpy_cold_ids, numpy_cold = measure_backend(
            dataset, table, "numpy", repeats, cold=True
        )
        bitset_cold_ids, bitset_cold = measure_backend(
            dataset, table, "bitset", repeats, cold=True
        )
        if not numpy_cold_ids == bitset_cold_ids == numpy_ids:
            raise SystemExit(f"backend mismatch at n={n} (cold tables)")
        nokern_seconds: Optional[float] = None
        if bitset.compiled:
            nokern_ids, nokern_seconds = measure_backend(
                dataset, table, make_bitset_backend(kernel="off"), repeats
            )
            if nokern_ids != numpy_ids:
                raise SystemExit(
                    f"backend mismatch at n={n}: bitset(kernel=off) "
                    f"found {len(nokern_ids)} points"
                )
        python_seconds: Optional[float] = None
        if n <= python_cap:
            python_ids, python_seconds = measure_backend(
                dataset, table, "python", repeats
            )
            if python_ids != numpy_ids:
                raise SystemExit(
                    f"backend mismatch at n={n}: python found "
                    f"{len(python_ids)} vs numpy {len(numpy_ids)} points"
                )
        speedup = (
            python_seconds / numpy_seconds
            if python_seconds and numpy_seconds
            else None
        )
        bitset_over_numpy = (
            numpy_seconds / bitset_seconds if bitset_seconds else None
        )
        cold_ratio = numpy_cold / bitset_cold if bitset_cold else None
        print(
            f"n={n}: bitset {bitset_seconds:.3f}s "
            f"({bitset_over_numpy:.1f}x over numpy); cold tables: numpy "
            f"{numpy_cold:.3f}s, bitset {bitset_cold:.3f}s "
            f"({cold_ratio:.1f}x)"
            + (
                f", python {python_seconds:.3f}s ({speedup:.1f}x)"
                if python_seconds is not None
                else ""
            ),
            file=sys.stderr,
            flush=True,
        )
        report["results"].append(
            {
                "num_points": n,
                "skyline_size": len(numpy_ids),
                "python_seconds": (
                    round(python_seconds, 6)
                    if python_seconds is not None
                    else None
                ),
                "numpy_seconds": round(numpy_seconds, 6),
                "bitset_seconds": round(bitset_seconds, 6),
                "numpy_cold_seconds": round(numpy_cold, 6),
                "bitset_cold_seconds": round(bitset_cold, 6),
                "bitset_nokern_seconds": (
                    round(nokern_seconds, 6)
                    if nokern_seconds is not None
                    else None
                ),
                "speedup": round(speedup, 2) if speedup else None,
                "bitset_over_numpy": (
                    round(bitset_over_numpy, 2) if bitset_over_numpy else None
                ),
                "bitset_cold_over_numpy_cold": (
                    round(cold_ratio, 2) if cold_ratio else None
                ),
            }
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        default=",".join(str(n) for n in DEFAULT_SIZES),
        help="comma-separated dataset sizes "
        "(default: 1000,10000,100000,1000000)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed repetitions per backend (best-of; default 1)",
    )
    parser.add_argument(
        "--python-cap",
        type=int,
        default=DEFAULT_PYTHON_CAP,
        help="skip the python backend above this many rows "
        f"(default: {DEFAULT_PYTHON_CAP})",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON baseline here (default: print to stdout)",
    )
    args = parser.parse_args(argv)
    if not numpy_available():
        print("numpy is not installed; nothing to compare", file=sys.stderr)
        return 1
    sizes = [int(s) for s in args.sizes.split(",") if s]
    report = run(sizes, args.repeats, args.python_cap)
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
