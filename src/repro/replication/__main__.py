"""The replication smoke: a one-process primary + replicas, checked.

::

    python -m repro.replication --smoke

boots, over real sockets on ephemeral ports:

* a durable **primary** (WAL + snapshots in a temp dir),
* ``--followers`` read replicas tailing its WAL stream,
* a :class:`FanOutClient` routing over the primary + replicas,

then runs the mutate-then-query convergence script: replicas must
reject writes (``403``), catch up to every primary mutation, and
answer queries *identically* to the primary at the same version; the
router must honour read-your-writes.  Any failed check prints and
exits 1 - this is the CI replication leg.  ``REPRO_FAULTS`` is
honoured, so the leg can run with the stream fault site armed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from contextlib import ExitStack
from typing import List, Tuple

from repro import faults
from repro.datagen.generator import SyntheticConfig, generate
from repro.datagen.queries import generate_preferences
from repro.net.client import NetClient
from repro.net.config import ServerConfig
from repro.net.resilient import RetryPolicy
from repro.net.server import ServerThread
from repro.replication.follower import Follower
from repro.replication.router import FanOutClient
from repro.replication.stream import HttpReplicationSource
from repro.serve.service import SkylineService


def build_parser() -> argparse.ArgumentParser:
    """The smoke check's argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-replication",
        description="Replication smoke check (docs/replication.md).",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="boot primary + followers in one process, "
                        "run the convergence script, exit 0/1")
    parser.add_argument("--points", type=int, default=400,
                        help="synthetic dataset size (default: 400)")
    parser.add_argument("--followers", type=int, default=2,
                        help="read replicas to boot (default: 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="dataset/workload seed (default: 0)")
    return parser


def run_smoke(args) -> int:
    """Boot the cluster, run the convergence script, report, exit code."""
    failures: List[str] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        print(
            f"replication-smoke: {name}: {'ok' if ok else 'FAIL ' + detail}",
            file=sys.stderr, flush=True,
        )
        if not ok:
            failures.append(f"{name}: {detail}")

    dataset = generate(SyntheticConfig(
        num_points=args.points, num_numeric=2,
        num_nominal=2, cardinality=6, seed=args.seed,
    ))
    preferences = [None] + generate_preferences(
        dataset, 1, 4, seed=args.seed
    )
    config = ServerConfig(host="127.0.0.1", port=0)
    policy = RetryPolicy(max_attempts=4, base_delay=0.01, max_delay=0.25)

    with tempfile.TemporaryDirectory() as tmp, ExitStack() as stack:
        # -- primary -------------------------------------------------------
        primary = SkylineService(
            dataset, storage_dir=os.path.join(tmp, "primary")
        )
        stack.callback(primary.close)
        primary_server = stack.enter_context(
            ServerThread(primary, config, debug=False)
        )
        primary_addr = (primary_server.host, primary_server.port)

        # -- followers -----------------------------------------------------
        followers: List[Follower] = []
        replica_addrs: List[Tuple[str, int]] = []
        for index in range(args.followers):
            follower = Follower(
                HttpReplicationSource(
                    *primary_addr, policy=policy, seed=args.seed + index
                ),
                poll_interval=0.05,
            )
            follower.sync()
            follower.start()
            stack.callback(follower.close)
            server = stack.enter_context(
                ServerThread(
                    follower.service, config, follower=follower, debug=False
                )
            )
            followers.append(follower)
            replica_addrs.append((server.host, server.port))

        # -- replica role + convergence ------------------------------------
        with NetClient(*replica_addrs[0]) as replica_client:
            health = replica_client.healthz()
            check(
                "replica-role",
                health.status == 200
                and health.json.get("role") == "replica",
                repr(health.json),
            )
            refused = replica_client.insert([list(dataset.row(0))])
            check(
                "replica-rejects-writes",
                refused.status == 403
                and refused.json["error"]["kind"] == "read-only-replica",
                repr(refused),
            )

        router = FanOutClient(
            primary_addr, replica_addrs, policy=policy, seed=args.seed
        )
        stack.callback(router.close)

        inserted = router.insert([list(dataset.row(0))])
        check(
            "primary-insert",
            inserted.status == 200 and inserted.json.get("version") == 1,
            repr(inserted.json),
        )
        deleted = router.delete([1])
        check(
            "primary-delete",
            deleted.status == 200 and deleted.json.get("version") == 2,
            repr(deleted.json),
        )

        for index, follower in enumerate(followers):
            check(
                f"follower-{index}-converges",
                follower.wait_for_version(primary.version, timeout=15.0),
                f"applied={follower.applied_version} "
                f"primary={primary.version}",
            )

        with NetClient(*primary_addr) as primary_client:
            for query_index, preference in enumerate(preferences):
                expected = primary_client.query_ids(preference)
                for index, addr in enumerate(replica_addrs):
                    with NetClient(*addr) as replica_client:
                        got = replica_client.query_ids(preference)
                    check(
                        f"replica-{index}-differential-q{query_index}",
                        got == expected,
                        f"replica={got} primary={expected}",
                    )

        routed = router.query(preferences[1])
        check(
            "router-read-your-writes",
            routed.status == 200
            and routed.json.get("version", -1) >= router.watermark,
            f"{routed.json and routed.json.get('version')} < "
            f"{router.watermark}",
        )

        summary = {
            "followers": [f.status() for f in followers],
            "router": router.counters(),
        }
        print(json.dumps(summary, indent=2), file=sys.stderr)

    for failure in failures:
        print(f"REPLICATION SMOKE FAILURE: {failure}", file=sys.stderr)
    print(
        "replication smoke " + ("ok" if not failures else "FAILED"),
        flush=True,
    )
    return 1 if failures else 0


def main(argv=None) -> int:
    """CLI entry point (arms REPRO_FAULTS, then runs the smoke)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    plan = faults.plan_from_env()
    if plan is not None:
        faults.install(plan)
        print(
            f"fault injection ARMED from ${faults.FAULTS_ENV_VAR}: "
            f"{len(plan.rules)} rule(s), seed {plan.seed}",
            file=sys.stderr,
        )
    if not args.smoke:
        parser.error("nothing to do; pass --smoke")
    return run_smoke(args)


if __name__ == "__main__":
    raise SystemExit(main())
