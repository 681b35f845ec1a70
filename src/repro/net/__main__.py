"""Command-line entry point of the network serving layer.

Boots a :class:`~repro.net.server.SkylineServer` over a synthetic (or
recovered) dataset and serves the HTTP/JSON protocol until SIGTERM::

    python -m repro.net --listen 127.0.0.1:8080 --points 4000
    python -m repro.net --listen :0                   # ephemeral port
    python -m repro.net --service-config service.json # hot-reloadable
    python -m repro.net --storage-dir ./state --recover
    python -m repro.net --follow 127.0.0.1:8080       # read replica
    python -m repro.net --smoke                       # CI smoke check

Signals: ``SIGTERM``/``SIGINT`` start a graceful drain (in-flight
requests finish, new work is refused, then the process exits 0);
``SIGHUP`` re-reads ``--service-config`` and applies the reloadable
fields (an invalid file keeps the old config and logs the error).

``--smoke`` is the CI leg: it boots the server on an ephemeral port,
runs a scripted client over real sockets (healthz, query twice for a
cache hit, batch, insert, delete, ``/admin/reload``, a ``SIGHUP``
reload, ``/metrics``), sends itself ``SIGTERM`` and asserts the drain
completes cleanly - exit 0/1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
import threading
import time
from dataclasses import replace
from typing import List, Optional

from repro import faults
from repro.net.client import NetClient, parse_listen
from repro.net.config import ServerConfig, load_config
from repro.net.server import SkylineServer
from repro.serve.__main__ import (
    add_service_arguments,
    apply_service_arguments,
    build_service,
)


def listen_spec(text: str):
    """Argparse ``type=`` for ``HOST:PORT`` flags: a bad spec is a usage
    error (exit code 2), not a traceback."""
    try:
        return parse_listen(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.net`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-net",
        description="Serve preference skyline queries over HTTP/JSON "
        "(protocol and ops knobs: docs/serving.md).",
    )
    parser.add_argument("--listen", type=listen_spec, default=None,
                        metavar="HOST:PORT",
                        help="address to bind; beats the config file's "
                        "host/port (default: the file's, else "
                        "127.0.0.1:0 - an ephemeral port, reported on "
                        "stderr)")
    parser.add_argument("--service-config", type=str, default=None,
                        help="JSON config file (docs/serving.md); re-read "
                        "on SIGHUP or POST /admin/reload")
    add_service_arguments(parser, cache_size=256)
    parser.add_argument("--follow", type=listen_spec, default=None,
                        metavar="HOST:PORT",
                        help="serve as a read-only replica tailing this "
                        "primary's WAL stream (mutations answer 403; "
                        "docs/replication.md)")
    parser.add_argument("--poll-interval", type=float, default=0.25,
                        help="replica stream poll interval in seconds "
                        "once caught up (default: 0.25)")
    parser.add_argument("--smoke", action="store_true",
                        help="boot on an ephemeral port, run the scripted "
                        "client, drain, and exit 0/1 (the CI leg)")
    return parser


async def run_server(
    service,
    config: ServerConfig,
    config_path: Optional[str],
    *,
    follower=None,
    on_ready=None,
) -> None:
    """Serve until SIGTERM/SIGINT; SIGHUP reloads the config file.

    ``on_ready(server)`` fires once the socket is bound (the smoke
    mode's client thread starts there).  Runs on the main thread so
    the loop may own the signal handlers.  With ``follower`` the
    server runs in read-only replica mode.
    """
    server = SkylineServer(
        service, config, config_path=config_path, follower=follower
    )
    await server.start()
    host, port = server.address
    print(f"listening on {host}:{port}", file=sys.stderr, flush=True)

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    loop.add_signal_handler(
        signal.SIGHUP,
        lambda: asyncio.ensure_future(server.reload_config()),
    )
    try:
        if on_ready is not None:
            on_ready(server)
        await stop.wait()
        print("draining ...", file=sys.stderr, flush=True)
        await server.shutdown(drain=True)
        print("drained; exiting", file=sys.stderr, flush=True)
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            loop.remove_signal_handler(sig)


def smoke(args) -> int:
    """The scripted end-to-end smoke: server + client in one process.

    The server loop runs on the main thread (it owns the signal
    handlers); the scripted client runs on a worker thread over real
    sockets and finishes by sending the process SIGHUP (live reload)
    and SIGTERM (graceful drain).  Any failed step is reported and
    exits 1; the drain completing is part of the assertion.
    """
    args.points = min(args.points, 400)
    service = build_service(args)
    failures: List[str] = []

    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "service.json")
        with open(config_path, "w") as handle:
            json.dump({"cache_capacity": 32, "max_queue": 16}, handle)

        def check(name: str, ok: bool, detail: str = "") -> None:
            print(f"smoke: {name}: {'ok' if ok else 'FAIL ' + detail}",
                  file=sys.stderr, flush=True)
            if not ok:
                failures.append(f"{name}: {detail}")

        def script(server: SkylineServer) -> None:
            host, port = server.address
            try:
                with NetClient(host, port) as client:
                    health = client.healthz()
                    check("healthz", health.status == 200, repr(health))
                    first = client.query(None)
                    check("query", first.status == 200, repr(first))
                    again = client.query(None)
                    check(
                        "cache-hit",
                        again.status == 200
                        and again.json.get("route") == "cache",
                        repr(again),
                    )
                    batch = client.batch([None, None])
                    check(
                        "batch",
                        batch.status == 200
                        and batch.json.get("duplicate_queries") == 1,
                        repr(batch),
                    )
                    row = list(service.dataset.row(0))
                    inserted = client.insert([row])
                    check(
                        "insert",
                        inserted.status == 200
                        and inserted.json.get("version")
                        == first.json["version"] + 1,
                        repr(inserted),
                    )
                    deleted = client.delete(inserted.json["point_ids"])
                    check("delete", deleted.status == 200, repr(deleted))
                    reloaded = client.reload()
                    check(
                        "admin-reload",
                        reloaded.status == 200 and reloaded.json.get("ok"),
                        repr(reloaded),
                    )
                    os.kill(os.getpid(), signal.SIGHUP)
                    # Monotonic, not wall-clock: an NTP step during the
                    # wait must not stretch or collapse the deadline.
                    # (The access log's ``ts`` field stays wall-clock
                    # deliberately - operators correlate it with other
                    # logs.)
                    deadline = time.monotonic() + 10
                    generation = 0
                    while time.monotonic() < deadline:
                        generation = client.healthz().json.get(
                            "config_generation", 0
                        )
                        if generation >= 2:
                            break
                        time.sleep(0.05)
                    check(
                        "sighup-reload", generation >= 2,
                        f"generation={generation}",
                    )
                    metrics = client.metrics()
                    check(
                        "metrics",
                        metrics.status == 200
                        and "repro_http_requests_total" in metrics.text,
                        f"status={metrics.status}",
                    )
            except Exception as exc:  # noqa: BLE001 - smoke must report
                failures.append(f"client script raised: {exc!r}")
            finally:
                os.kill(os.getpid(), signal.SIGTERM)

        def on_ready(server: SkylineServer) -> None:
            threading.Thread(
                target=script, args=(server,), name="smoke-client",
                daemon=True,
            ).start()

        config = ServerConfig(
            host="127.0.0.1", port=0, max_inflight=4, max_queue=8
        )
        try:
            asyncio.run(
                run_server(service, config, config_path, on_ready=on_ready),
                debug=True,
            )
        finally:
            service.close()

    for failure in failures:
        print(f"SMOKE FAILURE: {failure}", file=sys.stderr)
    print("smoke " + ("ok" if not failures else "FAILED"), flush=True)
    return 1 if failures else 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.follow is not None and (
        args.storage_dir is not None or args.recover or args.smoke
    ):
        parser.error(
            "--follow is a storage-less replica mode; it cannot be "
            "combined with --storage-dir/--recover/--smoke"
        )
    if args.poll_interval <= 0:
        parser.error("--poll-interval must be positive")
    apply_service_arguments(parser, args)
    plan = faults.plan_from_env()
    if plan is not None:
        faults.install(plan)
        print(
            f"fault injection ARMED from ${faults.FAULTS_ENV_VAR}: "
            f"{len(plan.rules)} rule(s), seed {plan.seed}",
            file=sys.stderr,
        )

    if args.smoke:
        return smoke(args)

    config = (
        load_config(args.service_config)
        if args.service_config is not None
        else ServerConfig()
    )
    if args.listen is not None:  # an explicit flag beats the file
        host, port = args.listen
        config = replace(config, host=host, port=port)

    if args.follow is not None:
        from repro.replication import Follower, HttpReplicationSource

        primary_host, primary_port = args.follow
        follower = Follower(
            HttpReplicationSource(primary_host, primary_port),
            cache_capacity=args.cache_size,
            poll_interval=args.poll_interval,
        )
        print(
            f"syncing replica from {primary_host}:{primary_port} ...",
            file=sys.stderr,
        )
        follower.sync()
        print(
            f"synced at version {follower.applied_version}; tailing",
            file=sys.stderr,
        )
        follower.start()
        try:
            asyncio.run(run_server(
                follower.service, config, args.service_config,
                follower=follower,
            ))
        finally:
            # Stop tailing before teardown so no WAL-stream fd (or the
            # replica service) outlives the process's useful life.
            follower.close()
        return 0

    print("building service ...", file=sys.stderr)
    service = build_service(args)
    try:
        asyncio.run(run_server(service, config, args.service_config))
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
