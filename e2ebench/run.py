"""Benchmark entry point.

    python3 e2ebench/run.py --workload cold-indexed --seed 1 --seconds 10 --trace 0

Run from the repository root.  Starts ``worker.py`` in a fresh process
with a fixed ``PYTHONHASHSEED`` and a clean ``REPRO_*`` environment,
waits for it (killing its whole process group after a timeout) and
exits with its code.  The worker's last stdout line is the result JSON.
Exits non-zero without a result when the program's source tree is not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("wire-hot", "cold-indexed", "scan-kernel", "churn-durable")
#: The whole run must end within 180 s.
TIMEOUT_S = 170.0


def child_env() -> dict:
    """The worker's environment: fixed hash seed, no inherited REPRO_* knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
        # The compiled bitset kernel is cached inside the checkout.
        REPRO_KERNEL_CACHE=str(ROOT / ".bench_build" / "kernels"),
        # Fail loudly instead of measuring a slower fallback tier.
        REPRO_BITSET_KERNEL="require",
    )
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program source {ROOT / 'src' / 'repro'} not found; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    child = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=child_env(), start_new_session=True,
    )
    try:
        code = child.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {TIMEOUT_S:.0f} s; killed", file=sys.stderr)
        code = 3
    finally:
        # The worker's group holds any server child it started.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
