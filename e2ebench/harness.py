"""Measurement primitives: reference probes, drift normalization, stats.

Every timing the benchmark reports is *drift-normalized*: the host's
vCPUs swing independently between a fast and a slow state (about 1.5x
apart, over seconds to minutes), so a raw wall-clock figure of
identical code moves by 10-20% between runs.  The harness therefore
runs a fixed reference probe - harness code, never program code - on
the same pinned CPU between operations and scales every timing by
``probe_ref / median(probe over the phase)``.  ``probe_ref`` is a
constant below, so a normalized value reads as "ms at the reference
speed".  README.md records the spreads this buys.
"""

from __future__ import annotations

import collections
import gc
import math
import os
import random
import resource
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

#: Reference durations (ns) of the two probes, warm, on a vCPU in its
#: fast state.  Constants, never measured at run time: changing one
#: rescales every normalized figure of the workloads that use it.
INTERP_PROBE_REF_NS = 150_000.0
VECTOR_PROBE_REF_NS = 3_000_000.0

#: A probe reading at most this factor above the fast level says the
#: vCPU is in its fast state; the slow states read 1.25-1.5x above it.
#: The fast level is the reference level, or the 10th percentile of the
#: run's recent probes where that is lower (a faster host).
FAST_STATE_LIMIT = 1.12
FLOOR_QUANTILE = 0.10
FLOOR_WINDOW = 500
CALIBRATION_PROBES = 25

#: Probes a gate runs on one vCPU before it tries another.  Slow spells
#: come in two kinds: flickers a few probes long, which a short spin on
#: the same vCPU outlasts, and states lasting seconds, which a move to
#: the other vCPU may escape.
SPIN_PROBES = 25

#: Most a run waits, in total, for a fast vCPU before it measures in a
#: slow state anyway (the report counts such operations).
WAIT_CAP_S = 20.0

#: Latency charged to an operation that failed (exception, non-200,
#: timeout or wrong answer): a failure misses any latency limit.
FAILED_OP_SECONDS = 30.0

#: Sampling period of :class:`ProbeSampler` for single long calls.
SAMPLER_PERIOD_S = 0.020

_INTERP_RNG = random.Random(7)
_INTERP_DATA = [_INTERP_RNG.random() for _ in range(1000)]


def interp_probe() -> int:
    """Interpreter probe: sort plus dict over 1,000 floats (~150 us).

    Returns its own duration in nanoseconds.  Exercises the same kind
    of work as the program's pure-Python paths (allocation, hashing,
    comparisons), so it slows down with them when the vCPU slows.
    """
    started = time.perf_counter_ns()
    ordered = sorted(_INTERP_DATA)
    index = {value: i for i, value in enumerate(ordered)}
    if len(index) != len(_INTERP_DATA):  # pragma: no cover - keeps work live
        raise AssertionError("probe lost values")
    return time.perf_counter_ns() - started


class VectorProbe:
    """Vectorized probe: NumPy sort plus cumsum over 200k floats (~3 ms).

    Used by the scan workload, whose time is spent in vectorized and
    compiled kernels; an interpreter probe tracks that speed poorly.
    """

    def __init__(self) -> None:
        import numpy as np

        self._data = np.random.default_rng(7).random(200_000)
        self._np = np

    def __call__(self) -> int:
        started = time.perf_counter_ns()
        total = self._np.cumsum(self._np.sort(self._data))
        if not total[-1] > 0:  # pragma: no cover - keeps work live
            raise AssertionError("probe lost values")
        return time.perf_counter_ns() - started


def normalization_factor(probe_ref_ns: float, probes_ns: Sequence[float]) -> float:
    """``probe_ref / median(probes)``: the factor applied to raw timings.

    A host running slow makes the probe slow, the factor drops below 1
    and scales the (equally slow) raw timings back to reference speed.
    """
    if not probes_ns:
        raise ValueError("no probe samples to normalize against")
    return probe_ref_ns / statistics.median(probes_ns)


class ProbeSampler:
    """Runs a probe every ~20 ms on a thread while a long call runs.

    Single long calls (service construction, recovery, server start)
    have no "between operations" to probe in, so this thread samples
    the CPU's speed during the call.  One probe runs before the thread
    starts and one after it stops, so even a call shorter than the
    period gets two samples.
    """

    def __init__(self) -> None:
        self._probe = interp_probe
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.samples: List[int] = []

    def __enter__(self) -> "ProbeSampler":
        self.samples.append(self._probe())
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(SAMPLER_PERIOD_S):
            self.samples.append(self._probe())

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.samples.append(self._probe())


class WaitBudget:
    """The run's total wait for a fast vCPU, shared by all its gates."""

    def __init__(self) -> None:
        self.spent_s = 0.0


class CpuGate:
    """Starts each timed operation on a vCPU in its fast state.

    The host's vCPUs drop into slow states that slow the program and
    the probe by *different* amounts (one state slows a cold query
    1.65x but the probe 1.3x, another slows the probe more than the
    query), so no probe can normalize a slow-state timing back to
    reference speed; fast-state timings normalize to within a few
    percent.  So before each timed operation the gate reads a warm
    probe.  If it is slow the gate spins probes on this vCPU, then on
    the other allowed vCPUs (moving the process, and the server child's
    threads, with it), until one reads fast.  A run that finds no fast
    vCPU at all waits out its budget (``WAIT_CAP_S``) once; after that
    operations start as they come and are counted as ``slow_ops``.
    """

    def __init__(
        self, probe: Callable[[], int], probe_ref_ns: float, cpus: Sequence[int],
        budget: Optional[WaitBudget] = None,
    ) -> None:
        self.probe = probe
        self.probe_ref_ns = probe_ref_ns
        self.budget = budget if budget is not None else WaitBudget()
        self.cpus = sorted(cpus)
        self.child_pid: Optional[int] = None
        self.last_ns: Optional[int] = None
        self.floor_ns: Optional[float] = None
        self._window: collections.deque = collections.deque(maxlen=FLOOR_WINDOW)
        self._seen = 0
        self.probe_cpu_s = 0.0
        self.moves = 0
        self.slow_ops = 0

    def observe(self, probe_ns: int) -> None:
        self.last_ns = probe_ns
        self._window.append(probe_ns)
        self._seen += 1
        if self._seen % 50 == 0 or self.floor_ns is None:
            ordered = sorted(self._window)
            self.floor_ns = ordered[int(FLOOR_QUANTILE * (len(ordered) - 1))]

    def fast(self) -> bool:
        return self.last_ns <= min(self.floor_ns, self.probe_ref_ns) * FAST_STATE_LIMIT

    def calibrate(self) -> None:
        """Sample every allowed vCPU, then settle on the fastest."""
        if self.floor_ns is not None:
            return
        cpu_started = time.thread_time()
        levels = {}
        for cpu in self.cpus:
            self.move(cpu)
            self.probe()  # the first probe after a move runs cold
            samples = [self.probe() for _ in range(CALIBRATION_PROBES)]
            for sample in samples:
                self.observe(sample)
            levels[cpu] = statistics.median(samples)
        self.move(min(levels, key=levels.get))
        self.moves = 0
        self.probe_cpu_s += time.thread_time() - cpu_started

    def read(self) -> None:
        """A warm probe reading of this vCPU (the first probe re-warms its data)."""
        cpu_started = time.thread_time()
        self.probe()
        self.observe(self.probe())
        self.probe_cpu_s += time.thread_time() - cpu_started

    def wait(self) -> None:
        """Return once a probe reads fast, or when the run's wait budget is spent."""
        self.calibrate()
        self.read()
        if self.fast():
            return
        if self.budget.spent_s >= WAIT_CAP_S:
            self.slow_ops += 1
            return
        started, cpu_started = time.perf_counter(), time.thread_time()
        try:
            while True:
                here = current_cpu()
                for cpu in [here] + [c for c in self.cpus if c != here]:
                    if cpu != here:
                        self.move(cpu)
                        self.probe()
                    for _ in range(SPIN_PROBES):
                        self.observe(self.probe())
                        if self.fast():
                            return
                if self.budget.spent_s + time.perf_counter() - started >= WAIT_CAP_S:
                    self.slow_ops += 1
                    return
        finally:
            self.budget.spent_s += time.perf_counter() - started
            self.probe_cpu_s += time.thread_time() - cpu_started

    def move(self, cpu: int) -> None:
        """Pin this thread and every thread of the server child to ``cpu``."""
        os.sched_setaffinity(0, {cpu})
        if self.child_pid is not None:
            for tid in os.listdir(f"/proc/{self.child_pid}/task"):
                try:
                    os.sched_setaffinity(int(tid), {cpu})
                except (ProcessLookupError, FileNotFoundError):
                    pass  # a thread that just ended
        self.moves += 1


def current_cpu() -> int:
    """The one CPU this thread is pinned to."""
    return min(os.sched_getaffinity(0))


def timed_call(fn: Callable[[], object], gate: CpuGate):
    """Run one long call under a sampler: ``(result, raw_s, normalized_s)``.

    The gate (interpreter probe) first waits for a fast vCPU.
    """
    gc.collect()
    gate.wait()
    with ProbeSampler() as sampler:
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
    return result, raw, raw * normalization_factor(INTERP_PROBE_REF_NS, sampler.samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(q, len(ordered)) - 1]


def _rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    # Rounded first so 99.9% of 10,000 is rank 9,990, not 9,991.
    return min(count, max(1, math.ceil(round(q / 100.0 * count, 9))))


#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least 10 samples beyond it."""
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= 10:
            return q
    raise ValueError(f"{count} samples leave no tail with 10 beyond it")


def tail_name(q: float) -> str:
    """``99.0 -> 'p99'``, ``99.9 -> 'p99.9'``."""
    return "p" + (f"{q:g}")


class OpStats:
    """Attempted / failed counts and latencies of one operation type."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0

    def ok(self, seconds: float) -> None:
        self.attempted += 1
        self.latencies.append(seconds)

    def fail(self) -> None:
        self.attempted += 1
        self.failed += 1
        self.latencies.append(FAILED_OP_SECONDS)

    def fail_recorded(self, index: int) -> None:
        """Mark an op already recorded as ok as failed (wrong answer)."""
        self.failed += 1
        self.latencies[index] = FAILED_OP_SECONDS


class PhaseClock:
    """Gates and probes between operations; accounts the phase's CPU time.

    ``before()`` reads a warm probe and waits for a fast vCPU
    (:class:`CpuGate`); the reading each operation starts on is the
    sample the phase is normalized by.  ``cpu_seconds`` is the process
    CPU time of the phase minus the CPU time the probes used, so work
    the program moves into background threads (or into the probe
    windows) still counts.
    """

    def __init__(
        self, probe: Callable[[], int], probe_ref_ns: float, cpus: Sequence[int],
        budget: Optional[WaitBudget] = None,
    ) -> None:
        self.probe_ref_ns = probe_ref_ns
        self.gate = CpuGate(probe, probe_ref_ns, cpus, budget)
        self.samples: List[int] = []
        self._cpu_start = 0.0
        self._gate_cpu_start = 0.0
        self._wall_start = 0.0
        self.cpu_seconds = 0.0
        self.wall_seconds = 0.0

    def start(self) -> None:
        gc.collect()
        self.gate.calibrate()
        self._gate_cpu_start = self.gate.probe_cpu_s
        self._cpu_start = time.process_time()
        self._wall_start = time.perf_counter()

    def before(self) -> None:
        self.gate.wait()
        self.samples.append(self.gate.last_ns)

    def stop(self) -> None:
        self.wall_seconds = time.perf_counter() - self._wall_start
        gate_cpu = self.gate.probe_cpu_s - self._gate_cpu_start
        self.cpu_seconds = time.process_time() - self._cpu_start - gate_cpu

    @property
    def factor(self) -> float:
        return normalization_factor(self.probe_ref_ns, self.samples)

    @property
    def probe_us(self) -> float:
        return statistics.median(self.samples) / 1000.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size in MiB of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of process ``pid`` (all threads)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def pin_to_one_cpu() -> List[int]:
    """Pin this process (and every child it starts) to one CPU.

    A probe only tracks the vCPU it runs on, so the probe, the program
    and (for the wire workload) the server child must share one CPU at
    any time.  Returns the CPUs the gate may move between.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry of the result line."""
    return {"value": value, "unit": unit}
