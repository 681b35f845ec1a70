#!/usr/bin/env python
"""Compare fresh benchmark runs against committed BENCH_*.json baselines.

Fails (exit 1) when any *headline metric* of a fresh run is more than
``--tolerance`` (default 25%) worse than the committed baseline::

    PYTHONPATH=src python benchmarks/bench_backends.py --sizes 1000 \
        --out /tmp/backends.json
    python benchmarks/check_regression.py \
        --pair /tmp/backends.json BENCH_backends.json

Multiple ``--pair fresh baseline`` arguments are checked in one go.
Entries are matched by identity keys (dataset size for the engine
benchmarks, scenario x workload for the serving benchmark); fresh runs
at sizes the baseline never measured are simply skipped, and the
checker fails when *nothing* matched (``--allow-empty`` downgrades
that to a warning) so a silently incomparable configuration cannot
masquerade as a pass.

Headline metrics come in two classes:

* **ratio metrics** (backend speedups, cache hit-rates, batched-over-
  sequential throughput) are dimensionless same-run comparisons and
  travel across machines;
* **absolute metrics** (seconds, qps) only mean anything on hardware
  comparable to the baseline's.  ``--ratios-only`` restricts the check
  to the first class - CI runners compare against baselines recorded
  on developer machines and would otherwise flake.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Iterator, List, Tuple

#: (metric name, higher_is_better, is_ratio_metric)
Metric = Tuple[str, float, bool, bool]


def _metric(
    name: str, value, higher_is_better: bool, ratio: bool
) -> Iterator[Metric]:
    """Yield one metric when its value is a usable number."""
    if isinstance(value, (int, float)) and value > 0:
        yield (name, float(value), higher_is_better, ratio)


#: The bitset-over-numpy ratios (warm and cold-table) are headline
#: metrics only at scale: at small n the packed tier's quantize/pack
#: overhead dominates and the ratio is noise, not signal.
BITSET_HEADLINE_MIN_ROWS = 100_000


def backends_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_backends.py`` report."""
    for entry in report.get("results", []):
        n = entry.get("num_points")
        yield from _metric(
            f"backends[n={n}].speedup", entry.get("speedup"), True, True
        )
        yield from _metric(
            f"backends[n={n}].python_seconds",
            entry.get("python_seconds"), False, False,
        )
        yield from _metric(
            f"backends[n={n}].numpy_seconds",
            entry.get("numpy_seconds"), False, False,
        )
        yield from _metric(
            f"backends[n={n}].bitset_seconds",
            entry.get("bitset_seconds"), False, False,
        )
        if isinstance(n, int) and n >= BITSET_HEADLINE_MIN_ROWS:
            yield from _metric(
                f"backends[n={n}].bitset_over_numpy",
                entry.get("bitset_over_numpy"), True, True,
            )
            yield from _metric(
                f"backends[n={n}].bitset_cold_over_numpy_cold",
                entry.get("bitset_cold_over_numpy_cold"), True, True,
            )


def serve_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_serve.py`` report."""
    for scenario in report.get("scenarios", []):
        name = scenario.get("scenario")
        for workload in scenario.get("workloads", []):
            shape = workload.get("workload")
            tag = f"serve[{name}/{shape}]"
            yield from _metric(
                f"{tag}.throughput_qps",
                workload.get("throughput_qps"), True, False,
            )
            yield from _metric(
                f"{tag}.p95_ms",
                workload.get("latency_ms", {}).get("p95"), False, False,
            )
            if shape in ("hot", "aliased"):
                # Only these shapes have *structural* hit rates (their
                # distinct-preference pools are fixed); cold hits are
                # coincidence and churn is designed to stay at zero.
                hit_rate = workload.get("cache", {}).get("hit_rate")
                yield from _metric(f"{tag}.hit_rate", hit_rate, True, True)
    batching = report.get("batching", {})
    for mode in ("cached", "uncached"):
        yield from _metric(
            f"serve.batching.{mode}.batch_speedup",
            batching.get(mode, {}).get("batch_speedup"), True, True,
        )


def updates_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_updates.py`` report."""
    for entry in report.get("results", []):
        n = entry.get("num_points")
        churn = entry.get("churn")
        tag = f"updates[n={n},churn={churn}]"
        yield from _metric(
            f"{tag}.maintain_speedup",
            entry.get("maintain_speedup"), True, True,
        )
        yield from _metric(
            f"{tag}.maintain_seconds",
            entry.get("maintain_seconds"), False, False,
        )


def storage_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_storage.py`` report."""
    for entry in report.get("results", []):
        n = entry.get("num_points")
        churn = entry.get("churn")
        tag = f"storage[n={n},churn={churn}]"
        yield from _metric(
            f"{tag}.recovery_speedup",
            entry.get("recovery_speedup"), True, True,
        )
        yield from _metric(
            f"{tag}.recover_seconds",
            entry.get("recover_seconds"), False, False,
        )
    # Zero-copy cold-start section (absent without NumPy: there is no
    # sidecar to map, so the tiers would measure the same path).  The
    # mmap-over-eager speedup is a same-run ratio, machine-portable.
    for entry in report.get("cold_start", []):
        n = entry.get("num_points")
        tag = f"storage.cold[n={n}]"
        yield from _metric(
            f"{tag}.mmap_speedup", entry.get("mmap_speedup"), True, True,
        )
        yield from _metric(
            f"{tag}.mmap_recover_seconds",
            entry.get("mmap_recover_seconds"), False, False,
        )


def net_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_net.py`` report."""
    for scenario in report.get("scenarios", []):
        name = scenario.get("scenario")
        tag = f"net[{name}]"
        yield from _metric(
            f"{tag}.throughput_qps",
            scenario.get("throughput_qps"), True, False,
        )
        latency = scenario.get("latency_ms", {})
        yield from _metric(f"{tag}.p50_ms", latency.get("p50"), False, False)
        yield from _metric(f"{tag}.p95_ms", latency.get("p95"), False, False)
        if name == "hot-cached":
            # The hot pool is fixed, so its hit rate is structural
            # (pool size vs cache capacity), machine-independent.
            yield from _metric(
                f"{tag}.hit_rate",
                scenario.get("cache", {}).get("hit_rate"), True, True,
            )
    # Wire efficiency is same-run dimensionless but couples the event
    # loop's speed to numpy kernel speed, which varies across hosts -
    # recorded and compared only on comparable hardware (not a ratio
    # metric for --ratios-only CI purposes).
    yield from _metric(
        "net.wire_efficiency.cold_uncached",
        report.get("wire_efficiency", {}).get("cold_uncached"),
        True, False,
    )


def replication_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_replication.py`` report."""
    replicas = report.get("replicas", {})
    # Read scaling is the whole point of replication: aggregate cluster
    # qps over primary-only qps is a same-run ratio, machine-portable.
    yield from _metric(
        "replication.aggregate_over_primary_qps",
        replicas.get("aggregate_over_primary_qps"), True, True,
    )
    yield from _metric(
        "replication.primary_only_qps",
        replicas.get("primary_only_qps"), True, False,
    )
    yield from _metric(
        "replication.aggregate_qps",
        replicas.get("aggregate_qps"), True, False,
    )
    yield from _metric(
        "replication.catchup_seconds",
        replicas.get("catchup_seconds"), False, False,
    )
    yield from _metric(
        "replication.bootstrap_seconds_max",
        replicas.get("bootstrap_seconds_max"), False, False,
    )
    scatter = report.get("scatter", {})
    tag = (
        f"scatter[n={scatter.get('num_points')},"
        f"shards={scatter.get('shards')}]"
    )
    yield from _metric(
        f"{tag}.coordinator_qps",
        scatter.get("coordinator_qps"), True, False,
    )
    yield from _metric(
        f"{tag}.merge_seconds_mean",
        scatter.get("merge_seconds_mean"), False, False,
    )


def faults_metrics(report: Dict) -> Iterator[Metric]:
    """Headline metrics of a ``bench_faults.py`` report."""
    # Degraded read-only mode must not slow the read path: this is a
    # same-run throughput ratio (~1.0), machine-portable.
    yield from _metric(
        "faults.degraded_over_healthy_qps",
        report.get("degraded_over_healthy_qps"), True, True,
    )
    for phase in ("healthy", "degraded"):
        yield from _metric(
            f"faults[{phase}].throughput_qps",
            report.get(phase, {}).get("throughput_qps"), True, False,
        )
    yield from _metric(
        "faults.recovery_seconds",
        report.get("recovery_seconds"), False, False,
    )
    yield from _metric(
        "faults.retry_storm_seconds",
        report.get("retry_storm_seconds"), False, False,
    )
    yield from _metric(
        "faults.disarmed_draw_ns",
        report.get("draw_overhead", {}).get("disarmed_ns"), False, False,
    )


#: "benchmark" field prefix -> metric extractor.
EXTRACTORS = {
    "sfs skyline wall-clock": backends_metrics,
    "preference-query serving layer": serve_metrics,
    "incremental skyline maintenance": updates_metrics,
    "durable snapshot + WAL recovery": storage_metrics,
    "HTTP serving layer wire round-trip": net_metrics,
    "fault injection and graceful degradation": faults_metrics,
    "WAL-shipped replication + sharded scatter-gather": replication_metrics,
}


def extract(report: Dict) -> Dict[str, Tuple[float, bool, bool]]:
    """Metric name -> (value, higher_is_better, is_ratio) for a report."""
    kind = report.get("benchmark", "")
    for prefix, extractor in EXTRACTORS.items():
        if kind.startswith(prefix):
            return {
                name: (value, higher, ratio)
                for name, value, higher, ratio in extractor(report)
            }
    raise SystemExit(f"unrecognised benchmark kind: {kind!r}")


def compare(
    fresh: Dict, baseline: Dict, tolerance: float, ratios_only: bool
) -> Tuple[List[str], int]:
    """(regression messages, number of compared metrics)."""
    fresh_metrics = extract(fresh)
    base_metrics = extract(baseline)
    failures: List[str] = []
    compared = 0
    for name, (base_value, higher, ratio) in sorted(base_metrics.items()):
        if name not in fresh_metrics:
            continue
        if ratios_only and not ratio:
            continue
        fresh_value = fresh_metrics[name][0]
        compared += 1
        if higher:
            worse_by = (base_value - fresh_value) / base_value
        else:
            worse_by = (fresh_value - base_value) / base_value
        if worse_by > tolerance:
            direction = "dropped" if higher else "grew"
            failures.append(
                f"{name} {direction} beyond tolerance: baseline "
                f"{base_value:g} -> fresh {fresh_value:g} "
                f"({worse_by:+.0%} worse, tolerance {tolerance:.0%})"
            )
    return failures, compared


def load_report(path: str, role: str) -> "Dict | None":
    """One parsed report, or ``None`` when the pair should be skipped.

    A missing or empty file is an expected state, not a crash: a fresh
    checkout has no recorded baseline yet, and a CI leg may not have
    produced the fresh report on this matrix entry.  Both skip with a
    clear message (and exit 0).  A file that *exists with content* but
    is not a JSON object is a real error and fails loudly - silently
    skipping a corrupt baseline would disable the check forever.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except FileNotFoundError:
        print(
            f"SKIP: {role} {path} does not exist - nothing to compare "
            f"(record one with the matching bench_*.py --out)"
        )
        return None
    if not text.strip():
        print(f"SKIP: {role} {path} is empty - nothing to compare")
        return None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(
            f"ERROR: {role} {path} holds malformed JSON ({exc}); "
            f"re-record it or delete it to skip the comparison"
        )
    if not isinstance(report, dict):
        raise SystemExit(
            f"ERROR: {role} {path} must hold one JSON object, "
            f"got {type(report).__name__}"
        )
    return report


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--pair",
        nargs=2,
        action="append",
        metavar=("FRESH", "BASELINE"),
        required=True,
        help="fresh report and committed baseline to compare "
        "(repeatable)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum tolerated relative slowdown per headline metric "
        "(default: 0.25)",
    )
    parser.add_argument(
        "--ratios-only",
        action="store_true",
        help="compare only machine-portable ratio metrics (for CI "
        "runners on different hardware than the baseline)",
    )
    parser.add_argument(
        "--allow-empty",
        action="store_true",
        help="do not fail when no metric of a pair is comparable",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    exit_code = 0
    for fresh_path, baseline_path in args.pair:
        fresh = load_report(fresh_path, "fresh report")
        baseline = load_report(baseline_path, "baseline")
        if fresh is None or baseline is None:
            continue
        failures, compared = compare(
            fresh, baseline, args.tolerance, args.ratios_only
        )
        label = f"{fresh_path} vs {baseline_path}"
        if compared == 0:
            message = f"{label}: no comparable headline metrics"
            if args.allow_empty:
                print(f"WARNING: {message}")
            else:
                print(f"FAIL: {message} (pass --allow-empty to tolerate)")
                exit_code = 1
            continue
        if failures:
            print(f"FAIL: {label} ({compared} metrics compared)")
            for failure in failures:
                print(f"  {failure}")
            exit_code = 1
        else:
            print(f"ok: {label} ({compared} metrics within tolerance)")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
