"""Normalization arithmetic, percentiles and the tail ladder."""

import statistics
import time

import pytest

import harness


def test_factor_is_reference_over_median_probe():
    assert harness.normalization_factor(150.0, [100.0, 300.0, 200.0]) == pytest.approx(0.75)
    assert harness.normalization_factor(150.0, [150.0]) == 1.0


def test_slow_host_scales_back_to_reference_speed():
    # The same work on a host running at 2/3 speed: raw time and probe
    # both grow by 1.5x, the normalized time does not.
    ref, raw_fast, probe_fast = 150_000.0, 0.010, 150_000.0
    raw_slow, probes_slow = raw_fast * 1.5, [probe_fast * 1.5] * 5
    assert raw_slow * harness.normalization_factor(ref, probes_slow) == pytest.approx(raw_fast)


def test_factor_needs_samples():
    with pytest.raises(ValueError):
        harness.normalization_factor(150.0, [])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 99) == 99
    assert harness.percentile(values, 100) == 100
    assert harness.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (9_999, 99.0), (1_000, 99.0), (999, 90.0), (100, 90.0), (99, 50.0), (20, 50.0),
])
def test_tail_is_highest_percentile_with_ten_beyond(count, expected):
    assert harness.tail_percentile(count) == expected


def test_tail_needs_twenty_samples():
    with pytest.raises(ValueError):
        harness.tail_percentile(19)


def test_failed_op_misses_any_latency_limit():
    stats = harness.OpStats()
    stats.ok(0.001)
    stats.ok(0.002)
    stats.fail_recorded(0)
    stats.fail()
    assert (stats.attempted, stats.failed) == (3, 2)
    assert stats.latencies == [harness.FAILED_OP_SECONDS, 0.002, harness.FAILED_OP_SECONDS]


def test_phase_clock_excludes_probe_cpu():
    clock = harness.PhaseClock(harness.interp_probe, harness.INTERP_PROBE_REF_NS, [harness.current_cpu()])
    clock.start()
    for _ in range(50):
        clock.before()
    clock.stop()
    assert len(clock.samples) == 50
    # A hundred probes of ~150 us ran; none of their CPU is charged.
    assert clock.cpu_seconds < 0.1 * sum(clock.samples) / 1e9
    assert clock.factor == pytest.approx(
        harness.INTERP_PROBE_REF_NS / statistics.median(clock.samples)
    )


def test_gate_reads_fast_against_the_reference_or_a_faster_floor():
    gate = harness.CpuGate(lambda: 0, 100.0, [harness.current_cpu()])
    for sample in [200] * 40:
        gate.observe(sample)
    assert not gate.fast()  # a slow host never reads fast against the reference
    gate.observe(100 * harness.FAST_STATE_LIMIT)
    assert gate.fast()
    for sample in [50] * 60:
        gate.observe(sample)
    gate.observe(60)
    assert not gate.fast()  # a faster floor tightens the limit


def test_gate_gives_up_after_the_wait_budget(monkeypatch):
    monkeypatch.setattr(harness, "WAIT_CAP_S", 0.05)
    gate = harness.CpuGate(lambda: 10_000, 100.0, [harness.current_cpu()])
    gate.wait()
    gate.wait()
    assert gate.slow_ops == 2
    assert gate.budget.spent_s >= 0.05


def test_sampler_brackets_a_short_call():
    gate = harness.CpuGate(harness.interp_probe, harness.INTERP_PROBE_REF_NS, [harness.current_cpu()])
    result, raw, norm = harness.timed_call(lambda: time.sleep(0.05) or 42, gate)
    assert result == 42
    assert raw >= 0.05
    assert norm > 0
