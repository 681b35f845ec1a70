"""Fault injection: deadlines, saturation, drain, bad reloads.

Each test makes the server misbehave-adjacent conditions *happen* -
a stalling client, a full admission gate, a shutdown racing in-flight
work, a corrupt config file - and asserts the documented recovery:
honest status codes, old config kept, in-flight work completing, and
a server that is still (or verifiably no longer) serving afterwards.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.queries import generate_preferences
from repro.net import MetricsRegistry, NetClient, ServerConfig, ServerThread
from repro.serve.service import SkylineService


def build_service(points: int = 150, cache: int = 32) -> SkylineService:
    """A small fresh service (mutation tests need isolation)."""
    dataset = generate(
        SyntheticConfig(
            num_points=points, num_numeric=2, num_nominal=2,
            cardinality=4, seed=3,
        )
    )
    return SkylineService(
        dataset, frequent_value_template(dataset, 1), cache_capacity=cache
    )


# ---------------------------------------------------------------------------
# deadlines
# ---------------------------------------------------------------------------
def test_slow_loris_header_answers_408_within_deadline():
    config = ServerConfig(port=0, read_timeout=0.3, idle_timeout=5.0,
                          access_log=False)
    with ServerThread(build_service(), config) as thread:
        with socket.create_connection(
            (thread.host, thread.port), timeout=5.0
        ) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nContent-")  # ... stall
            started = time.perf_counter()
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            elapsed = time.perf_counter() - started
        response = b"".join(chunks)
        assert response.startswith(b"HTTP/1.1 408")
        assert json.loads(
            response.partition(b"\r\n\r\n")[2]
        )["error"]["kind"] == "header-timeout"
        assert elapsed < 5.0  # the deadline fired, not the test timeout
        with NetClient(thread.host, thread.port) as client:
            assert client.healthz().status == 200


def test_idle_keep_alive_connection_is_closed_quietly():
    config = ServerConfig(port=0, idle_timeout=0.2, access_log=False)
    with ServerThread(build_service(), config) as thread:
        with socket.create_connection(
            (thread.host, thread.port), timeout=5.0
        ) as sock:
            # Send nothing at all: the server must hang up on its own,
            # without wasting an error response on the silent peer.
            assert sock.recv(65536) == b""


def test_request_deadline_answers_504():
    # Deterministic deadline overrun: the single worker thread is
    # busy, so the admitted request waits in the executor queue past
    # its deadline - exactly the overload the 504 is for.
    config = ServerConfig(port=0, request_timeout=0.1, worker_threads=1,
                          access_log=False)
    with ServerThread(build_service(), config) as thread:
        blocker = thread.server._executor.submit(time.sleep, 1.0)
        try:
            with NetClient(thread.host, thread.port) as client:
                response = client.query(None)
                assert response.status == 504
                assert response.json["error"]["kind"] == "deadline"
                # Ops routes never touch the executor: still live.
                assert client.healthz().status == 200
        finally:
            blocker.result(timeout=10)
        # Worker freed -> the same request now succeeds.
        with NetClient(thread.host, thread.port) as client:
            assert client.query(None).status == 200


def test_client_abort_mid_exchange_does_not_leak_connections():
    registry = MetricsRegistry()
    config = ServerConfig(port=0, access_log=False, idle_timeout=0.3)
    with ServerThread(build_service(), config, registry=registry) as thread:
        for _ in range(3):
            sock = socket.create_connection(
                (thread.host, thread.port), timeout=5.0
            )
            # Hard RST as soon as the request is out: the server's
            # write/drain hits a connection error, not a traceback.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00",
            )
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            sock.close()
        deadline = time.time() + 5.0
        gauge = registry.get("repro_net_open_connections")
        open_connections = gauge.value
        while time.time() < deadline and open_connections() > 0:
            time.sleep(0.05)
        assert open_connections() == 0
        with NetClient(thread.host, thread.port) as client:
            assert client.healthz().status == 200


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------
def test_saturated_gate_answers_429_then_recovers():
    registry = MetricsRegistry()
    config = ServerConfig(port=0, max_inflight=1, max_queue=0,
                          access_log=False)
    with ServerThread(build_service(), config, registry=registry) as thread:
        # Deterministically occupy the single execution slot.
        thread.run_coroutine(thread.server._admission.acquire())
        try:
            with NetClient(thread.host, thread.port) as client:
                rejected = client.query(None)
                assert rejected.status == 429
                assert rejected.json["error"]["kind"] == "admission"
                assert client.healthz().status == 200  # ops route unaffected
                raw = client.request("POST", "/query", {"preference": None})
                assert raw.status == 429
                assert "Retry-After" in {
                    k.title() for k in raw.headers
                }
        finally:
            thread.run_coroutine(thread.server._admission.release())
        with NetClient(thread.host, thread.port) as client:
            recovered = client.query(None)
            assert recovered.status == 200  # slot freed -> admitted again
        rejected = registry.get("repro_http_rejected_total")
        assert rejected.value("admission") >= 2


def test_retry_after_header_value_is_configurable():
    config = ServerConfig(port=0, max_inflight=1, max_queue=0,
                          retry_after_seconds=7, access_log=False)
    with ServerThread(build_service(), config) as thread:
        thread.run_coroutine(thread.server._admission.acquire())
        try:
            with NetClient(thread.host, thread.port) as client:
                response = client.query(None)
                assert response.status == 429
                header = {
                    k.lower(): v for k, v in response.headers.items()
                }["retry-after"]
                assert header == "7"
        finally:
            thread.run_coroutine(thread.server._admission.release())


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------
def test_drain_completes_inflight_and_refuses_new():
    service = build_service(points=300)
    prefs = generate_preferences(
        service.dataset, 3, 150, template=service.template, seed=5
    )
    config = ServerConfig(port=0, access_log=False)
    outcome = {}

    with ServerThread(service, config) as thread:
        host, port = thread.host, thread.port

        def big_batch():
            with NetClient(host, port, timeout=60) as client:
                outcome["batch"] = client.batch(prefs, use_cache=False)

        worker = threading.Thread(target=big_batch)
        worker.start()
        # Let the batch reach the executor before pulling the plug.
        deadline = time.time() + 5.0
        while (
            time.time() < deadline
            and thread.server._admission.inflight == 0
        ):
            time.sleep(0.002)
        assert thread.server._admission.inflight > 0
        thread.stop()  # graceful drain: waits for the batch

        worker.join(timeout=60)
        assert not worker.is_alive()
        # The in-flight batch completed with a real answer...
        assert outcome["batch"].status == 200
        assert len(outcome["batch"].json["results"]) == len(prefs)
        # ... and the listener is gone: new connections are refused.
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=2.0)


def test_draining_healthz_reports_503(monkeypatch):
    """While draining, /healthz flips to 503 'draining'."""
    config = ServerConfig(port=0, access_log=False)
    with ServerThread(build_service(), config) as thread:

        async def _flip():
            thread.server._draining = True

        thread.run_coroutine(_flip())
        with NetClient(thread.host, thread.port) as client:
            health = client.healthz()
            assert health.status == 503
            assert health.json["status"] == "draining"
            refused = client.query(None)
            assert refused.status == 503
            assert refused.json["error"]["kind"] == "draining"

        async def _unflip():
            thread.server._draining = False

        thread.run_coroutine(_unflip())
        with NetClient(thread.host, thread.port) as client:
            assert client.healthz().status == 200


def test_server_thread_stops_cleanly_without_traffic():
    with ServerThread(build_service(), ServerConfig(port=0)) as thread:
        pass
    assert not thread._thread.is_alive()


# ---------------------------------------------------------------------------
# hot reload
# ---------------------------------------------------------------------------
def test_invalid_reload_keeps_old_config(tmp_path):
    config_path = tmp_path / "service.json"
    config_path.write_text(json.dumps({"max_inflight": 5, "max_queue": 9}))
    config = ServerConfig(port=0, access_log=False)
    with ServerThread(
        build_service(), config, config_path=str(config_path)
    ) as thread:
        with NetClient(thread.host, thread.port) as client:
            first = client.reload()
            assert first.status == 200
            assert first.json["ok"] is True
            assert "max_inflight" in first.json["changed"]
            assert thread.server.config.max_inflight == 5
            generation = first.json["generation"]

            for bad in (
                "{not json",                          # unparseable
                json.dumps({"max_inflight": "lots"}), # wrong type
                json.dumps({"max_inflight": 0}),      # out of range
                json.dumps({"surprise_knob": 1}),     # unknown key
                json.dumps({"planner": {"parallel_min_rows": 1}}),  # stale
            ):
                config_path.write_text(bad)
                failed = client.reload()
                assert failed.status == 400
                assert failed.json["ok"] is False
                assert failed.json["error"]
                # Old config stays in force, generation unchanged.
                assert thread.server.config.max_inflight == 5
                assert thread.server.config.max_queue == 9
                health = client.healthz()
                assert health.json["config_generation"] == generation

            # And a later valid file still applies cleanly.
            config_path.write_text(json.dumps({"max_inflight": 3}))
            again = client.reload()
            assert again.json["ok"] is True
            assert thread.server.config.max_inflight == 3
            assert again.json["generation"] == generation + 1


def test_reload_reports_non_reloadable_fields(tmp_path):
    config_path = tmp_path / "service.json"
    config_path.write_text(
        json.dumps({"host": "0.0.0.0", "port": 1234, "max_queue": 4})
    )
    with ServerThread(
        build_service(), ServerConfig(port=0, access_log=False),
        config_path=str(config_path),
    ) as thread:
        with NetClient(thread.host, thread.port) as client:
            report = client.reload()
        assert report.json["ok"] is True
        assert set(report.json["ignored_non_reloadable"]) == {"host", "port"}
        assert thread.server.config.max_queue == 4
        assert thread.server.config.port == 0  # the bound socket's spec


def test_reload_without_config_file_reports_absence():
    with ServerThread(
        build_service(), ServerConfig(port=0, access_log=False)
    ) as thread:
        with NetClient(thread.host, thread.port) as client:
            report = client.reload()
        assert report.status == 400
        assert report.json["ok"] is False
        assert "config file" in report.json["error"]


def test_reload_resizes_live_cache_and_planner(tmp_path):
    service = build_service(cache=64)
    config_path = tmp_path / "service.json"
    config_path.write_text(json.dumps({
        "cache_capacity": 2,
        "planner": {"forced_route": "mdc"},
    }))
    with ServerThread(
        service, ServerConfig(port=0, access_log=False),
        config_path=str(config_path),
    ) as thread:
        with NetClient(thread.host, thread.port) as client:
            assert client.reload().json["ok"] is True
            assert service.cache.capacity == 2
            forced = client.query(None, use_cache=False)
            assert forced.status == 200
            assert forced.json["route"] == "mdc"
