"""Turns passes into the reported end-to-end and per-layer metrics.

End-to-end metrics are reported by every workload (the result line
must carry each of them, and none may be 0); the churn-only figures
(insert/delete latency, recovery, disk bytes per row) are printed by
the untraced run and carried as ``churn.*`` in the traced run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import harness
import spans as spans_mod
from harness import percentile, tail_percentile

#: (name, unit, better, bound) of the end-to-end metrics.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("read_p50_ms", "ms", "lower", 0.20),
    ("read_tail_ms", "ms", "lower", 0.24),
    ("cpu_ms_per_op", "ms", "lower", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

ROUTE_NAMES = ("cache", "incremental", "ipo", "adaptive", "mdc", "bitset", "parallel", "kernel")

#: (name, unit, better) of the per-layer metrics of the traced run.
#: ``*_ms`` layer times are self time per timed operation (so they add
#: up to the operation's latency), except where noted in README.md.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("net.codec_ms", "ms", "lower"),
    ("net.render_ms", "ms", "lower"),
    ("net.unattributed_ms", "ms", "lower"),
    ("core.canonicalize_ms", "ms", "lower"),
    ("core.rank_compile_ms", "ms", "lower"),
    ("serve.query_self_ms", "ms", "lower"),
    ("serve.cache.lookup_ms", "ms", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.planner.plan_ms", "ms", "lower"),
) + tuple(
    (f"serve.route_share.{route}", "ratio", "higher" if route == "cache" else "lower")
    for route in ROUTE_NAMES
) + (
    ("serve.cache.revise_ms", "ms", "lower"),
    ("serve.cache.patched", "count", "lower"),
    ("serve.cache.invalidated", "count", "lower"),
    ("ipo.query_ms", "ms", "lower"),
    ("ipo.calls", "count", "lower"),
    ("ipo.build_s", "s", "lower"),
    ("mdc.query_ms", "ms", "lower"),
    ("mdc.calls", "count", "lower"),
    ("mdc.build_s", "s", "lower"),
    ("adaptive.query_ms", "ms", "lower"),
    ("adaptive.calls", "count", "lower"),
    ("adaptive.build_s", "s", "lower"),
    ("ipo.refresh_ms", "ms", "lower"),
    ("adaptive.insert_ms", "ms", "lower"),
    ("adaptive.delete_ms", "ms", "lower"),
    ("engine.prepare_ms", "ms", "lower"),
    ("engine.skyline_ms", "ms", "lower"),
    ("engine.calls_per_query", "count", "lower"),
    ("engine.rows_in_per_row_out", "ratio", "lower"),
    ("updates.dataset.append_ms", "ms", "lower"),
    ("updates.incremental.insert_ms", "ms", "lower"),
    ("updates.incremental.delete_ms", "ms", "lower"),
    ("storage.wal.append_ms", "ms", "lower"),
    ("storage.wal.bytes_per_record", "bytes", "lower"),
    ("storage.checkpoint.count", "count", "lower"),
    ("storage.checkpoint_ms", "ms", "lower"),
    ("storage.checkpoint_bytes", "bytes", "lower"),
    ("storage.read_snapshot_ms", "ms", "lower"),
    ("storage.restore_dataset_ms", "ms", "lower"),
    ("storage.replay_records", "count", "lower"),
    ("storage.replay_ms", "ms", "lower"),
    ("churn.insert_p50_ms", "ms", "lower"),
    ("churn.insert_tail_ms", "ms", "lower"),
    ("churn.delete_p50_ms", "ms", "lower"),
    ("churn.delete_tail_ms", "ms", "lower"),
    ("churn.recover_s", "s", "lower"),
    ("churn.disk_bytes_per_row", "bytes", "lower"),
    ("host.probe_us", "us", "lower"),
    ("host.raw_setup_s", "s", "lower"),
    ("host.raw_read_p50_ms", "ms", "lower"),
    ("host.raw_read_tail_ms", "ms", "lower"),
    ("host.raw_cpu_ms_per_op", "ms", "lower"),
    ("host.raw_insert_p50_ms", "ms", "lower"),
    ("host.raw_delete_p50_ms", "ms", "lower"),
    ("host.raw_recover_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _latency(stats, q: float, factor: float) -> float:
    return percentile(stats.latencies, q) * factor * 1000.0


def end_to_end(p) -> Dict[str, Tuple[float, float]]:
    """Metric name -> (normalized, raw) for every end-to-end metric.

    Also returns the churn-only figures when the pass has them.
    """
    factor = p.clock.factor
    reads = p.ops["read"]
    tail = tail_percentile(len(reads.latencies))
    out = {
        "setup_s": (statistics.median(p.setup_norm), statistics.median(p.setup_raw)),
        "read_p50_ms": (_latency(reads, 50, factor), _latency(reads, 50, 1.0)),
        "read_tail_ms": (_latency(reads, tail, factor), _latency(reads, tail, 1.0)),
        "cpu_ms_per_op": (
            p.cpu_seconds / p.timed_ops * factor * 1000.0,
            p.cpu_seconds / p.timed_ops * 1000.0,
        ),
        "peak_rss_mb": (p.rss_mb, p.rss_mb),
    }
    for kind in ("insert", "delete"):
        if kind in p.ops:
            stats = p.ops[kind]
            q = tail_percentile(len(stats.latencies))
            out[f"{kind}_p50_ms"] = (_latency(stats, 50, factor), _latency(stats, 50, 1.0))
            out[f"{kind}_tail_ms"] = (_latency(stats, q, factor), _latency(stats, q, 1.0))
    if p.recover_norm:
        out["recover_s"] = (statistics.median(p.recover_norm), statistics.median(p.recover_raw))
    if p.disk_bytes_per_row is not None:
        out["disk_bytes_per_row"] = (p.disk_bytes_per_row, p.disk_bytes_per_row)
    return out


def tails(p) -> Dict[str, str]:
    """Which percentile each ``*_tail_ms`` figure is, e.g. ``p99``."""
    return {
        kind: harness.tail_name(tail_percentile(len(p.ops[kind].latencies)))
        for kind in ("read", "insert", "delete")
        if kind in p.ops
    }


def route_shares(p) -> Dict[str, float]:
    total = sum(p.routes.values())
    return {route: (p.routes.get(route, 0) / total if total else 0.0) for route in ROUTE_NAMES}


def per_layer(traced, untraced) -> Dict[str, float]:
    """Every per-layer metric from the traced pass (0 where a layer is idle)."""
    phase = spans_mod.phase_spans(traced.spans)
    own = spans_mod.self_times(traced.spans)
    lineage = spans_mod.ancestors(traced.spans)
    factor = traced.clock.factor
    ops = max(1, traced.timed_ops)
    reads = max(1, traced.ops["read"].attempted)
    setup_factor = statistics.median(traced.setup_norm) / statistics.median(traced.setup_raw)

    def self_ms(name: str) -> float:
        return sum(own[s[0]] for s in phase if s[1] == name) / 1e6 * factor / ops

    def calls(name: str, pool=phase) -> List[tuple]:
        return [s for s in pool if s[1] == name]

    def mean_s(pool: List[tuple], scale: float) -> float:
        if not pool:
            return 0.0
        return statistics.fmean(s[3] - s[2] for s in pool) / 1e9 * scale

    m: Dict[str, float] = {}
    for layer in ("net.codec", "net.render", "core.canonicalize", "core.rank_compile",
                  "serve.cache.lookup", "serve.planner.plan", "serve.cache.revise",
                  "ipo.query", "mdc.query", "adaptive.query", "ipo.refresh",
                  "adaptive.insert", "adaptive.delete", "engine.prepare", "engine.skyline",
                  "updates.dataset.append", "updates.incremental.insert",
                  "updates.incremental.delete", "storage.wal.append"):
        m[f"{layer}_ms"] = self_ms(layer)
    m["serve.query_self_ms"] = self_ms("serve.query")

    # Client latency not covered by any named server-side span.
    if traced.workload == "wire-hot":
        covered = [0] * len(traced.windows)
        for s in phase:
            covered[s[5]] += own[s[0]]
        gaps = [(w[1] - w[0]) - c for w, c in zip(traced.windows, covered)]
        m["net.unattributed_ms"] = statistics.fmean(gaps) / 1e6 * factor
    else:
        m["net.unattributed_ms"] = 0.0

    shares = route_shares(traced)
    m["serve.cache.hit_ratio"] = shares["cache"]
    for route, share in shares.items():
        m[f"serve.route_share.{route}"] = share
    delta = traced.cache_delta
    if traced.evictions is not None:
        m["serve.cache.evictions"] = traced.evictions
    else:
        m["serve.cache.evictions"] = delta.evictions if delta is not None else 0
    m["serve.cache.patched"] = delta.patches if delta is not None else 0
    m["serve.cache.invalidated"] = delta.invalidations if delta is not None else 0

    for struct in ("ipo", "mdc", "adaptive"):
        m[f"{struct}.calls"] = len(calls(f"{struct}.query"))
        m[f"{struct}.build_s"] = mean_s(calls(f"{struct}.build", traced.spans), setup_factor)

    skylines = calls("engine.skyline")
    m["engine.calls_per_query"] = len(skylines) / reads
    rows_out = sum(s[7] for s in skylines)
    m["engine.rows_in_per_row_out"] = sum(s[6] for s in skylines) / rows_out if rows_out else 0.0

    appends = calls("storage.wal.append")
    m["storage.wal.bytes_per_record"] = (
        statistics.fmean(s[7] for s in appends) if appends else 0.0
    )
    checkpoints = calls("storage.checkpoint")
    m["storage.checkpoint.count"] = len(checkpoints)
    m["storage.checkpoint_ms"] = mean_s(checkpoints, factor) * 1000.0
    m["storage.checkpoint_bytes"] = (
        statistics.fmean(s[7] for s in checkpoints) if checkpoints else 0.0
    )

    recovers = max(1, len(calls("serve.recover", traced.spans)))
    recover_factor = (
        statistics.median(traced.recover_norm) / statistics.median(traced.recover_raw)
        if traced.recover_raw else 1.0
    )
    for layer in ("storage.read_snapshot", "storage.restore_dataset"):
        total = sum(s[3] - s[2] for s in calls(layer, traced.spans))
        m[f"{layer}_ms"] = total / 1e6 * recover_factor / recovers
    replayed = [
        s for s in traced.spans
        if s[1] in ("serve.insert", "serve.delete") and "serve.recover" in lineage[s[0]]
    ]
    m["storage.replay_records"] = len(replayed) / recovers
    m["storage.replay_ms"] = sum(s[3] - s[2] for s in replayed) / 1e6 * recover_factor / recovers

    base = end_to_end(untraced)
    for name in ("insert_p50_ms", "insert_tail_ms", "delete_p50_ms", "delete_tail_ms",
                 "recover_s", "disk_bytes_per_row"):
        m[f"churn.{name}"] = base[name][0] if name in base else 0.0
    m["host.probe_us"] = untraced.clock.probe_us
    for name in ("setup_s", "read_p50_ms", "read_tail_ms", "cpu_ms_per_op",
                 "insert_p50_ms", "delete_p50_ms", "recover_s"):
        m[f"host.raw_{name}"] = base[name][1] if name in base else 0.0
    traced_p50 = end_to_end(traced)["read_p50_ms"][0]
    m["trace.overhead_ratio"] = traced_p50 / base["read_p50_ms"][0]
    return m
