"""One benchmark run in a fresh, pinned process (started by run.py).

Pins itself to one CPU, runs the workload's pass(es), prints a
human-readable report (normalized value, raw wall-clock value and the
probe median side by side) and, as the last line, the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import harness
import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Builds per run whose median is ``setup_s`` (one per pass when traced).
SETUPS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(p, args) -> None:
    """The human-readable part: every figure normalized and raw."""
    e2e = metrics.end_to_end(p)
    tails = metrics.tails(p)
    units = {name: unit for name, unit, _b, _x in metrics.END_TO_END}
    probe = "vector" if args.workload == "scan-kernel" else "interpreter"
    gate = p.clock.gate
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  phase: {p.timed_ops} timed ops in {p.clock.wall_seconds:.2f} s; gate waited "
          f"{p.wait.spent_s:.2f} s for a fast vCPU, {gate.moves} moves, "
          f"{gate.slow_ops} ops started in a slow state")
    print(f"  host.probe_us {_fmt(p.clock.probe_us)} ({probe} probe, "
          f"factor {_fmt(p.clock.factor)} = probe_ref / median probe)")
    for name, (norm, raw) in e2e.items():
        unit = units.get(name, "s" if name.endswith("_s") else "ms")
        if name == "disk_bytes_per_row":
            unit = "bytes"
        label = name
        for kind, q in tails.items():
            if name == f"{kind}_tail_ms":
                label = f"{name} ({q})"
        print(f"  {label:<24} {_fmt(norm):>12} {unit:<5} raw {_fmt(raw)}")
    if p.client_cpu_seconds is not None:
        print(f"  client cpu_ms_per_op     {_fmt(p.client_cpu_seconds / p.timed_ops * 1000.0)} "
              f"ms (harness process; not gated)")
    shares = {k: round(v, 4) for k, v in metrics.route_shares(p).items() if v}
    print(f"  routes {shares}")
    for kind, stats in sorted(p.ops.items()):
        print(f"  ops {kind:<8} attempted {stats.attempted:>6}  failed {stats.failed}")
    print(f"  answers checked {p.checked}")


def details(p) -> dict:
    """Deterministic facts of a run (compared by the self-tests)."""
    return {
        "route_shares": metrics.route_shares(p),
        "disk_bytes_per_row": p.disk_bytes_per_row,
        "attempted": {kind: s.attempted for kind, s in sorted(p.ops.items())},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("--seconds must be at least 1")
    cpus = harness.pin_to_one_cpu()
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            untraced = workloads.run_pass(
                args.workload, args.seed, args.seconds, 1, cpus, workdir, traced=False
            )
            traced = workloads.run_pass(
                args.workload, args.seed, args.seconds, 1, cpus, workdir, traced=True
            )
            passes = [untraced, traced]
        else:
            untraced = workloads.run_pass(
                args.workload, args.seed, args.seconds, SETUPS, cpus, workdir, traced=False
            )
            passes = [untraced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(untraced, args)
    print("details " + json.dumps(details(untraced), sort_keys=True))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked = all(p.checked > 0 for p in passes)
    if args.trace:
        values = metrics.per_layer(traced, untraced)
        out = {
            name: harness.metric(values[name], unit)
            for name, unit, _better in metrics.PER_LAYER
        }
        for name, unit, _better in metrics.PER_LAYER:
            print(f"  {name:<34} {_fmt(values[name]):>12} {unit}")
    else:
        values = metrics.end_to_end(untraced)
        out = {
            name: harness.metric(values[name][0], unit)
            for name, unit, _better, _bound in metrics.END_TO_END
        }
    print(json.dumps({
        "correct": failed == 0 and checked,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
