#!/usr/bin/env python
"""Replication benchmark: WAL-shipped read replicas.

Boots a durable primary, measures its hot-workload wire QPS, then
boots N followers (bootstrap snapshot + WAL tail over real sockets),
measures the mutate-to-converged catch-up time, and finally measures
each node's *isolated* hot-workload QPS.  ``aggregate_over_primary_qps``
is the summed per-node read capacity over the primary-only capacity.
Nodes are separate machines in a real deployment; measuring them one
at a time and summing *models* that (and sidesteps the benchmark
container serialising concurrent nodes onto one CPU), so
``check_regression.py`` reports it and ``aggregate_qps`` as labelled
models and gates neither.

The recorded baseline lives in ``BENCH_replication.json``::

    PYTHONPATH=src python benchmarks/bench_replication.py \
        --out BENCH_replication.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List

from repro.datagen.generator import SyntheticConfig, generate
from repro.datagen.queries import generate_preferences
from repro.engine import get_backend
from repro.net import NetClient, ServerConfig, ServerThread
from repro.net.protocol import encode_preference
from repro.replication import Follower, HttpReplicationSource
from repro.serve.service import SkylineService


def drive(host: str, port: int, payloads: List[dict], clients: int) -> float:
    """Fire ``payloads`` at ``/query`` from keep-alive clients -> QPS."""
    chunks = [payloads[i::clients] for i in range(clients)]

    def one_client(chunk) -> None:
        with NetClient(host, port, timeout=60) as client:
            for payload in chunk:
                response = client.request("POST", "/query", payload)
                if response.status != 200:
                    raise RuntimeError(
                        f"/query answered {response.status}: "
                        f"{response.text[:200]}"
                    )

    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        list(pool.map(one_client, chunks))
    return len(payloads) / (time.perf_counter() - started)


def bench_replicas(args, config: ServerConfig, workdir: Path) -> Dict:
    """Primary-only vs primary+followers read capacity + catch-up time."""
    dataset = generate(SyntheticConfig(
        num_points=args.points, num_numeric=args.numeric,
        num_nominal=args.nominal, cardinality=args.cardinality,
        seed=args.seed,
    ))
    pool = generate_preferences(dataset, args.order, args.hot_pool,
                                seed=args.seed)
    payloads = [
        {"preference": encode_preference(pool[i % len(pool)]),
         "use_cache": True}
        for i in range(args.queries)
    ]

    primary = SkylineService(
        dataset, cache_capacity=args.cache_size,
        storage_dir=workdir / "primary",
    )
    followers: List[Follower] = []
    servers: List[ServerThread] = []
    try:
        primary_server = ServerThread(primary, config, debug=False)
        servers.append(primary_server.__enter__())
        primary_qps = drive(
            primary_server.host, primary_server.port, payloads, args.clients
        )
        print(f"primary-only: {primary_qps:.1f} q/s", file=sys.stderr)

        # Bootstrap: snapshot fetch + restore + WAL tail, timed per
        # follower.  Since snapshot format v2 the restore half decodes
        # lazily (the payload becomes a borrowed column store instead
        # of being re-materialised row by row), so this cost tracks the
        # WAL tail and the wire, not the dataset size.
        bootstrap_seconds: List[float] = []
        for index in range(args.followers):
            started = time.perf_counter()
            follower = Follower(
                HttpReplicationSource(
                    primary_server.host, primary_server.port,
                    seed=args.seed + index,
                ),
                cache_capacity=args.cache_size,
                poll_interval=0.02,
            )
            follower.sync()
            bootstrap_seconds.append(time.perf_counter() - started)
            follower.start()
            followers.append(follower)
        if bootstrap_seconds:
            print(f"bootstrap: {max(bootstrap_seconds) * 1000:.1f} ms "
                  f"(slowest of {len(bootstrap_seconds)})", file=sys.stderr)
            servers.append(ServerThread(
                follower.service, config, follower=follower, debug=False,
            ).__enter__())

        # Mutate-to-converged: one insert batch, clock until every
        # follower serves the new version.
        target_rows = [dataset.row(i) for i in range(args.catchup_rows)]
        started = time.perf_counter()
        target = primary.insert_rows(target_rows).version
        for follower in followers:
            if not follower.wait_for_version(target, timeout=60.0):
                raise RuntimeError(
                    f"follower never converged: {follower.status()}"
                )
        catchup = time.perf_counter() - started
        print(f"catch-up to version {target} on {args.followers} "
              f"follower(s): {catchup * 1000:.1f} ms", file=sys.stderr)

        per_node = [
            drive(server.host, server.port, payloads, args.clients)
            for server in servers
        ]
        for follower in followers:
            status = follower.status()
            if status["lag"] != 0 or status["torn_refusals"] != 0:
                raise RuntimeError(f"follower unhealthy: {status}")
        aggregate = sum(per_node)
        print(f"aggregate over {len(per_node)} node(s): "
              f"{aggregate:.1f} q/s "
              f"({aggregate / primary_qps:.2f}x primary-only)",
              file=sys.stderr)
        return {
            "replicas": args.followers,
            "primary_only_qps": round(primary_qps, 2),
            "per_node_qps": [round(qps, 2) for qps in per_node],
            "aggregate_qps": round(aggregate, 2),
            "aggregate_over_primary_qps": round(aggregate / primary_qps, 4),
            "catchup_rows": args.catchup_rows,
            "catchup_seconds": round(catchup, 6),
            "bootstrap_seconds": [round(s, 6) for s in bootstrap_seconds],
            "bootstrap_seconds_max": round(max(bootstrap_seconds), 6)
            if bootstrap_seconds else None,
            "methodology": (
                "per-node QPS measured in isolation and summed: nodes are "
                "separate machines in deployment, and the benchmark "
                "container would serialise concurrent nodes onto one CPU"
            ),
        }
    finally:
        for server in reversed(servers):
            server.__exit__(None, None, None)
        for follower in followers:
            follower.close()
        primary.close()


def main(argv=None) -> int:
    """Run the benchmark and write the JSON report."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=2000,
                        help="dataset size (default: 2000)")
    parser.add_argument("--queries", type=int, default=300,
                        help="hot-workload requests per node")
    parser.add_argument("--followers", type=int, default=2)
    parser.add_argument("--catchup-rows", type=int, default=10,
                        help="rows in the convergence-timing insert")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--hot-pool", type=int, default=16)
    parser.add_argument("--cache-size", type=int, default=64)
    parser.add_argument("--numeric", type=int, default=2)
    parser.add_argument("--nominal", type=int, default=2)
    parser.add_argument("--cardinality", type=int, default=8)
    parser.add_argument("--order", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default=None)
    args = parser.parse_args(argv)

    config = ServerConfig(
        port=0, max_inflight=max(args.clients, 4),
        max_queue=args.clients * 8, access_log=False,
    )
    with tempfile.TemporaryDirectory(prefix="bench-replication-") as tmp:
        replicas = bench_replicas(args, config, Path(tmp))

    payload = {
        "benchmark": "WAL-shipped replication",
        "python": platform.python_version(),
        "backend": get_backend().name,
        "cpus": os.cpu_count(),
        "config": {
            "points": args.points,
            "queries": args.queries,
            "followers": args.followers,
            "clients": args.clients,
            "hot_pool": args.hot_pool,
            "numeric": args.numeric,
            "nominal": args.nominal,
            "cardinality": args.cardinality,
            "order": args.order,
            "seed": args.seed,
        },
        "replicas": replicas,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
