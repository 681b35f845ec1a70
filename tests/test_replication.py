"""Tests of :mod:`repro.replication`: WAL shipping, followers, routing.

Layered like the package itself:

* the offset-addressed WAL window reader (pure storage, no service),
* the service-level stream endpoints (snapshot / window / gone),
* the follower protocol - differential equality against the primary at
  *every* version, torn-frame refusal, rotation re-sync, discontinuity
  re-sync - driven synchronously through
  :class:`~repro.replication.stream.LocalReplicationSource`,
* chaos via the ``replication.stream`` fault site (stream cut
  mid-record and resumed; faked rotations),
* replica-mode HTTP servers and the fan-out router over real sockets,
* fd hygiene: closing services/followers releases every descriptor.

The paper's contract here is exactness: a replica must answer
*identically* to the primary at the same version, so nearly every
test ends in an id-for-id comparison.
"""

from __future__ import annotations

import os
import random
import socket

import pytest

from repro import faults
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.datagen import SyntheticConfig, generate
from repro.datagen.queries import generate_preferences
from repro.exceptions import ReplicationError, StorageError
from repro.faults import FaultPlan, FaultRule
from repro.net.client import NetClient
from repro.net.config import ServerConfig
from repro.net.resilient import RetryPolicy
from repro.net.server import ServerThread
from repro.replication import (
    FanOutClient,
    Follower,
    HttpReplicationSource,
    LocalReplicationSource,
    ReplicationSource,
)
from repro.serve.service import SkylineService
from repro.storage import WriteAheadLog, frame_record, verify_frame


def _config() -> ServerConfig:
    return ServerConfig(host="127.0.0.1", port=0)


#: Fail fast in tests: transient trouble is either injected (and the
#: test wants to see the failure) or a bug.
FAST = RetryPolicy(max_attempts=2, base_delay=0.005, max_delay=0.02)


@pytest.fixture(scope="module")
def dataset():
    return generate(SyntheticConfig(
        num_points=160, num_numeric=2, num_nominal=2, cardinality=5,
        seed=11,
    ))


@pytest.fixture(scope="module")
def preferences(dataset):
    return [None] + generate_preferences(dataset, 1, 3, seed=7)


def _ids(service, preference):
    return service.query(preference, use_cache=False).ids


# ---------------------------------------------------------------------------
# WAL window reader
# ---------------------------------------------------------------------------
def _write_wal(path, count):
    wal = WriteAheadLog(path)
    for version in range(1, count + 1):
        wal.append({"op": "insert", "version": version, "rows": [[version]]})
    wal.close()
    return path.read_bytes()


def test_read_window_paginates_on_frame_boundaries(tmp_path):
    raw = _write_wal(tmp_path / "wal", 7)
    offset, shipped = 0, b""
    hops = 0
    while True:
        window = WriteAheadLog.read_window(tmp_path / "wal", offset, 64)
        for frame in window.frames:
            verify_frame(frame)  # every shipped frame is whole and valid
            shipped += frame
        assert window.next_offset == offset + sum(
            len(f) for f in window.frames
        )
        offset = window.next_offset
        hops += 1
        if window.end_of_log:
            break
    assert shipped == raw  # stream == file, byte for byte
    assert hops > 1  # 64-byte windows actually paginated


def test_read_window_returns_oversized_frame_rather_than_stall(tmp_path):
    _write_wal(tmp_path / "wal", 2)
    window = WriteAheadLog.read_window(tmp_path / "wal", 0, 1)
    assert len(window.frames) == 1  # one frame despite max_bytes=1
    assert not window.end_of_log


def test_read_window_missing_file_is_empty_stream(tmp_path):
    window = WriteAheadLog.read_window(tmp_path / "nope", 0, 1024)
    assert window.frames == () and window.end_of_log
    assert window.next_offset == 0


def test_read_window_rejects_bad_arguments(tmp_path):
    _write_wal(tmp_path / "wal", 1)
    with pytest.raises(StorageError):
        WriteAheadLog.read_window(tmp_path / "wal", -1, 10)
    with pytest.raises(StorageError):
        WriteAheadLog.read_window(tmp_path / "wal", 0, 0)
    with pytest.raises(StorageError):
        WriteAheadLog.read_window(tmp_path / "wal", 10_000, 10)


def test_read_window_stops_before_torn_tail(tmp_path):
    raw = _write_wal(tmp_path / "wal", 3)
    torn = raw + b"deadbeef {\"op\": \"ins"  # append in flight
    (tmp_path / "wal").write_bytes(torn)
    window = WriteAheadLog.read_window(tmp_path / "wal", 0, 1 << 20)
    assert len(window.frames) == 3
    assert window.next_offset == len(raw)  # never advances past the tear


def test_read_window_mid_file_corruption_raises(tmp_path):
    raw = _write_wal(tmp_path / "wal", 3)
    lines = raw.splitlines(keepends=True)
    lines[1] = b"00000000" + lines[1][8:]  # break the middle CRC
    (tmp_path / "wal").write_bytes(b"".join(lines))
    with pytest.raises(StorageError, match="corrupt at byte"):
        WriteAheadLog.read_window(tmp_path / "wal", 0, 1 << 20)


def test_frame_round_trip_and_tamper_detection():
    record = {"op": "insert", "version": 1, "rows": [[1, "a"]]}
    frame = frame_record(record)
    assert verify_frame(frame) == record
    with pytest.raises(StorageError):
        verify_frame(frame.replace(b"insert", b"delete"))


# ---------------------------------------------------------------------------
# service stream endpoints
# ---------------------------------------------------------------------------
def test_replication_snapshot_and_window_round_trip(tmp_path, dataset):
    with SkylineService(dataset, storage_dir=tmp_path / "p") as primary:
        snap = primary.replication_snapshot()
        assert snap["version"] == 0
        assert snap["primary_version"] == 0
        primary.insert_rows([dataset.row(0)])
        window = primary.replication_window(0, 0, 1 << 20)
        assert not window["gone"]
        assert window["primary_version"] == 1
        assert len(window["frames"]) == 1
        record = verify_frame(window["frames"][0].encode("ascii"))
        assert record["op"] == "insert" and record["version"] == 1
        assert window["end_of_log"]


def test_replication_window_goes_gone_after_rotation(tmp_path, dataset):
    with SkylineService(dataset, storage_dir=tmp_path / "p") as primary:
        primary.insert_rows([dataset.row(0)])
        primary.checkpoint()  # rotates: generation 0 is folded away
        assert primary.replication_window(0, 0, 1024)["gone"]
        assert not primary.replication_window(1, 0, 1024)["gone"]


def test_storage_less_service_has_no_stream(dataset):
    with SkylineService(dataset) as service:
        with pytest.raises(StorageError):
            service.replication_snapshot()
        with pytest.raises(StorageError):
            service.replication_window(0, 0, 1024)


# ---------------------------------------------------------------------------
# follower protocol (synchronous, no sockets)
# ---------------------------------------------------------------------------
def _drain(follower):
    # A ``gone`` window applies 0 frames but flips the state to
    # "syncing"; the extra leading poll turns that into the re-sync.
    follower.poll()
    while follower.poll() > 0:
        pass


def test_follower_differential_at_every_version(
    tmp_path, dataset, preferences
):
    """The tentpole invariant: replica answers == primary answers, at
    every version the primary ever passes through."""
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    steps = [
        lambda: primary.insert_rows([dataset.row(0), dataset.row(1)]),
        lambda: primary.delete_rows([1, 3]),
        lambda: primary.insert_rows([dataset.row(2)]),
        lambda: primary.compact(),  # non-identity remap: logged + shipped
        lambda: primary.delete_rows([0]),
    ]
    try:
        for step in steps:
            step()
            _drain(follower)
            assert follower.applied_version == primary.version
            assert follower.lag == 0
            for preference in preferences:
                assert _ids(follower.service, preference) == _ids(
                    primary, preference
                )
        assert follower.resyncs == 1  # pure tailing, no re-bootstrap
        assert follower.torn_refusals == 0
    finally:
        follower.close()
        primary.close()


def test_follower_resyncs_after_checkpoint_rotation(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        primary.insert_rows([dataset.row(0)])
        _drain(follower)
        primary.checkpoint()  # kill the generation the follower tails
        primary.insert_rows([dataset.row(1)])
        _drain(follower)  # observes gone, re-syncs, catches up
        assert follower.resyncs == 2
        assert follower.applied_version == primary.version == 2
        assert _ids(follower.service, None) == _ids(primary, None)
    finally:
        follower.close()
        primary.close()


def test_follower_refuses_torn_frame_and_recovers(tmp_path, dataset):
    """Chaos: the stream is cut mid-record, the follower refuses the
    torn frame without advancing, re-fetches it intact, and converges
    with zero divergence."""
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        primary.insert_rows([dataset.row(0)])
        primary.insert_rows([dataset.row(1)])
        plan = FaultPlan(rules=[
            FaultRule(site="replication.stream", kind="torn", at=(1,)),
        ])
        with faults.use(plan):
            with pytest.raises(ReplicationError, match="verification"):
                follower.poll()  # the cut window: refuse, do not advance
            applied_after_tear = follower.applied_version
            assert applied_after_tear < primary.version
            _drain(follower)  # re-fetch from the held offset, catch up
        assert follower.torn_refusals == 1
        assert follower.resyncs == 1  # a tear never forces a re-sync
        assert follower.applied_version == primary.version
        assert _ids(follower.service, None) == _ids(primary, None)
    finally:
        follower.close()
        primary.close()


def test_follower_resyncs_on_faked_rotation(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        primary.insert_rows([dataset.row(0)])
        plan = FaultPlan(rules=[
            FaultRule(site="replication.stream", kind="gone", at=(1,)),
        ])
        with faults.use(plan):
            assert follower.poll() == 0  # observes the (fake) rotation
            _drain(follower)
        assert follower.resyncs == 2
        assert follower.applied_version == primary.version
        assert _ids(follower.service, None) == _ids(primary, None)
    finally:
        follower.close()
        primary.close()


class _ScriptedSource(ReplicationSource):
    """A source whose windows come from a script (after a real sync)."""

    def __init__(self, primary, windows):
        self._real = LocalReplicationSource(primary)
        self.windows = list(windows)

    def snapshot(self):
        return self._real.snapshot()

    def window(self, base, offset, max_bytes):
        if self.windows:
            return self.windows.pop(0)
        return self._real.window(base, offset, max_bytes)


def test_follower_refuses_version_discontinuity(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    gap_frame = frame_record({
        "op": "insert", "version": 7, "rows": [list(dataset.row(0))],
    }).decode("ascii")
    source = _ScriptedSource(primary, [{
        "gone": False, "base": 0, "offset": 0, "next_offset": len(gap_frame),
        "end_of_log": True, "frames": [gap_frame], "primary_version": 7,
    }])
    follower = Follower(source, poll_interval=0.01)
    follower.sync()
    try:
        with pytest.raises(ReplicationError, match="discontinuity"):
            follower.poll()
        assert follower.applied_version == 0  # nothing applied
        assert follower.frames_applied == 0
        _drain(follower)  # recovers by re-syncing from the real source
        assert follower.resyncs == 2
        assert follower.applied_version == primary.version
    finally:
        follower.close()
        primary.close()


def test_follower_background_thread_converges(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    follower.start()
    try:
        with pytest.raises(ReplicationError):
            follower.start()  # double-start is a bug, not a no-op
        primary.insert_rows([dataset.row(0)])
        primary.delete_rows([0])
        assert follower.wait_for_version(primary.version, timeout=10.0)
        assert _ids(follower.service, None) == _ids(primary, None)
    finally:
        follower.close()
        primary.close()


#: A small all-integer corpus, so the pinned WAL below stays readable.
PARITY_SCHEMA = Schema([
    numeric_min("P"), numeric_min("Q"),
    nominal("G", ["T", "H", "M"]), nominal("S", ["a", "b", "c"]),
])


def _parity_row(rng):
    return [
        rng.randrange(20), rng.randrange(20),
        rng.choice("THM"), rng.choice("abc"),
    ]


def _write_record_stream(service):
    """A seeded insert/delete/compact stream with a compact mid-way."""
    rng = random.Random(29)
    for step in ("insert", "delete", "insert", "compact", "delete", "insert"):
        if step == "insert":
            # The last row beats every earlier one of its group, so each
            # insert changes both maintained skylines.
            rows = [_parity_row(rng) for _ in range(3)]
            rows.append([-1 - service.version, 0, "M", "c"])
            service.insert_rows(rows)
        elif step == "delete":
            live = sorted(service._dynamic.ids)
            service.delete_rows(rng.sample(live, 3))
        else:
            service.compact()


#: The WAL written for :func:`_write_record_stream` by the write path as
#: it was before ``SkylineService.apply_record`` became the one
#: record-apply method: the record bytes must not change.
EARLIER_WAL = (
    b'6b09c536 {"op":"insert","rows":[[17,2,"H","c"],[19,9,"T","c"],[11,12,"H","a"],[-1,0,"M","c"]],"version":1}\n'
    b'ce75984d {"ids":[2,6,28],"op":"delete","version":2}\n'
    b'd4340e09 {"op":"insert","rows":[[7,11,"T","b"],[10,19,"M","b"],[6,14,"T","a"],[-3,0,"M","c"]],"version":3}\n'
    b'b94d86b2 {"op":"compact","version":4}\n'
    b'6c5ef7e6 {"ids":[27,26,43],"op":"delete","version":5}\n'
    b'c5c16450 {"op":"insert","rows":[[18,16,"T","c"],[13,9,"H","c"],[7,13,"H","c"],[-6,0,"M","c"]],"version":6}\n'
)


def test_live_replayed_and_followed_records_agree(tmp_path):
    """One record stream, three consumers: the primary applies it live,
    recovery replays it, a follower applies its frames.  A WAL written
    by the earlier write path recovers too."""
    rng = random.Random(3)
    data = Dataset(PARITY_SCHEMA, [tuple(_parity_row(rng)) for _ in range(40)])
    template = Preference({"G": "T < *"})
    preferences = [
        None,
        Preference({"G": "T < H < *"}),
        Preference({"G": "T < M < H", "S": "b < *"}),
        Preference({"S": "c < a < *"}),
    ]
    primary = SkylineService(data, template, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    services = [primary]
    try:
        follower.sync()
        _write_record_stream(primary)
        _drain(follower)
        services.append(follower.service)
        primary.close()
        assert (tmp_path / "p" / "wal-0.log").read_bytes() == EARLIER_WAL
        services.append(SkylineService.recover(tmp_path / "p"))
        SkylineService(data, template, storage_dir=tmp_path / "old").close()
        (tmp_path / "old" / "wal-0.log").write_bytes(EARLIER_WAL)
        services.append(SkylineService.recover(tmp_path / "old"))

        assert primary.version == 6
        for service in services:
            assert service.version == primary.version
            for maintainer in ("_maintainer", "_base_maintainer"):
                assert sorted(getattr(service, maintainer).ids) == sorted(
                    getattr(primary, maintainer).ids
                ), maintainer
            assert service.available_routes() == primary.available_routes()
            snap = service.data_snapshot()
            translate = service._dynamic.snapshot_ids()
            for pref in preferences:
                expected = tuple(sorted(
                    translate[i] for i in skyline(
                        snap, pref, template=template,
                        algorithm="bruteforce",
                    ).ids
                ))
                for route in service.available_routes():
                    assert service.query(
                        pref, use_cache=False, route=route
                    ).ids == expected, route
    finally:
        follower.close()
        for service in services:
            service.close()


# ---------------------------------------------------------------------------
# replica-mode HTTP server
# ---------------------------------------------------------------------------
def test_replica_server_rejects_writes_and_reports_role(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        with ServerThread(
            follower.service, _config(), follower=follower, debug=False
        ) as server:
            with NetClient(server.host, server.port) as client:
                health = client.healthz()
                assert health.status == 200
                assert health.json["role"] == "replica"
                assert health.json["replication"]["ready"] is True
                refused = client.insert([list(dataset.row(0))])
                assert refused.status == 403
                assert (
                    refused.json["error"]["kind"] == "read-only-replica"
                )
                assert client.delete([0]).status == 403
                assert client.compact().status == 403
                # Reads keep working, identically to the primary.
                assert client.query_ids(None) == _ids(primary, None)
                metrics = client.metrics()
                assert "repro_replication_ready 1" in metrics.text
                assert "repro_replication_lag_versions" in metrics.text
                assert "repro_replication_torn_refusals_total" in (
                    metrics.text
                )
    finally:
        follower.close()
        primary.close()


class _DeadSource(ReplicationSource):
    def snapshot(self):
        raise ReplicationError("primary unreachable")

    def window(self, base, offset, max_bytes):
        raise ReplicationError("primary unreachable")


def test_unsynced_replica_answers_503_syncing(dataset):
    placeholder = SkylineService(dataset)
    follower = Follower(_DeadSource())
    try:
        with ServerThread(
            placeholder, _config(), follower=follower, debug=False
        ) as server:
            with NetClient(server.host, server.port) as client:
                health = client.healthz()
                assert health.status == 503
                assert health.json["status"] == "syncing"
                response = client.query(None)
                assert response.status == 503
                assert (
                    response.json["error"]["kind"] == "replica-syncing"
                )
                assert response.retry_after is not None
                # Mutations are refused for role, not readiness.
                assert client.insert([list(dataset.row(0))]).status == 403
    finally:
        placeholder.close()


def test_replica_server_tracks_resync_service_swap(tmp_path, dataset):
    """After a rotation re-sync replaces the service object, the server
    must answer from the *new* replica (the _service() accessor)."""
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        with ServerThread(
            follower.service, _config(), follower=follower, debug=False
        ) as server:
            before = follower.service
            primary.insert_rows([dataset.row(0)])
            primary.checkpoint()
            primary.insert_rows([dataset.row(1)])
            _drain(follower)
            assert follower.service is not before  # really swapped
            with NetClient(server.host, server.port) as client:
                assert client.query_ids(None) == _ids(primary, None)
                health = client.healthz()
                assert (
                    health.json["replication"]["applied_version"]
                    == primary.version
                )
    finally:
        follower.close()
        primary.close()


def test_replication_endpoints_over_the_wire(tmp_path, dataset):
    with SkylineService(dataset, storage_dir=tmp_path / "p") as primary:
        with ServerThread(primary, _config(), debug=False) as server:
            with NetClient(server.host, server.port) as client:
                snap = client.replication_snapshot()
                assert snap.status == 200 and snap.json["version"] == 0
                client.insert([list(dataset.row(0))])
                window = client.replication_wal(0, 0)
                assert window.status == 200
                assert len(window.json["frames"]) == 1
                # Wire-strict decoding: bad shapes answer 400.
                bad = client.request(
                    "POST", "/replication/wal", {"base": -1, "offset": 0}
                )
                assert bad.status == 400
                typo = client.request(
                    "POST", "/replication/wal",
                    {"base": 0, "offset": 0, "extra": 1},
                )
                assert typo.status == 400


def test_replication_endpoints_409_without_storage(dataset):
    with SkylineService(dataset) as service:  # storage-less primary
        with ServerThread(service, _config(), debug=False) as server:
            with NetClient(server.host, server.port) as client:
                response = client.replication_snapshot()
                assert response.status == 409
                assert (
                    response.json["error"]["kind"]
                    == "replication-unavailable"
                )
                assert client.replication_wal(0, 0).status == 409


def test_http_follower_over_real_sockets(tmp_path, dataset, preferences):
    with SkylineService(dataset, storage_dir=tmp_path / "p") as primary:
        with ServerThread(primary, _config(), debug=False) as server:
            follower = Follower(
                HttpReplicationSource(
                    server.host, server.port, policy=FAST, seed=3
                ),
                poll_interval=0.01,
            )
            follower.sync()
            follower.start()
            try:
                primary.insert_rows([dataset.row(0)])
                primary.delete_rows([2])
                assert follower.wait_for_version(
                    primary.version, timeout=10.0
                )
                for preference in preferences:
                    assert _ids(follower.service, preference) == _ids(
                        primary, preference
                    )
            finally:
                follower.close()


# ---------------------------------------------------------------------------
# fan-out router
# ---------------------------------------------------------------------------
def _free_port() -> int:
    """A port with nothing listening on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def test_router_bounded_staleness_and_failover(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()  # synced at version 0, then left un-started (lags)
    try:
        with ServerThread(primary, _config(), debug=False) as pserver:
            with ServerThread(
                follower.service, _config(), follower=follower, debug=False
            ) as rserver:
                router = FanOutClient(
                    (pserver.host, pserver.port),
                    [(rserver.host, rserver.port)],
                    policy=FAST, seed=9,
                )
                with router:
                    # Fresh cluster: the replica serves reads.
                    assert router.query(None).status == 200
                    assert router.counters()["replica_served"] == 1
                    # Mutate: watermark moves, the lagging replica is
                    # rejected as stale and the primary answers.
                    assert router.insert(
                        [list(dataset.row(0))]
                    ).status == 200
                    assert router.watermark == 1
                    answer = router.query(None)
                    assert answer.status == 200
                    assert answer.json["version"] == 1
                    counters = router.counters()
                    assert counters["stale_rejected"] == 1
                    assert counters["primary_served"] == 1
                    # Replica catches up -> serves again.
                    _drain(follower)
                    assert router.query(None).status == 200
                    assert router.counters()["replica_served"] == 2

        # Dead replica: failover to the primary, never an error.
        with ServerThread(primary, _config(), debug=False) as pserver:
            router = FanOutClient(
                (pserver.host, pserver.port),
                [("127.0.0.1", _free_port())],
                policy=FAST, seed=9,
            )
            with router:
                assert router.query_ids(None) == _ids(primary, None)
                assert router.counters()["failovers"] >= 1
                assert router.counters()["primary_served"] == 1
    finally:
        follower.close()
        primary.close()


def test_router_max_staleness_accepts_bounded_lag(tmp_path, dataset):
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    try:
        with ServerThread(primary, _config(), debug=False) as pserver:
            with ServerThread(
                follower.service, _config(), follower=follower, debug=False
            ) as rserver:
                router = FanOutClient(
                    (pserver.host, pserver.port),
                    [(rserver.host, rserver.port)],
                    max_staleness=1, policy=FAST, seed=2,
                )
                with router:
                    router.insert([list(dataset.row(0))])
                    # One version behind <= max_staleness: accepted.
                    answer = router.query(None)
                    assert answer.json["version"] == 0
                    assert router.counters()["replica_served"] == 1
                    # min_version pins override the slack.
                    pinned = router.query(None, min_version=1)
                    assert pinned.json["version"] == 1
                    assert router.counters()["primary_served"] == 1
    finally:
        follower.close()
        primary.close()


def test_router_rejects_negative_staleness():
    with pytest.raises(ValueError):
        FanOutClient(("127.0.0.1", 1), max_staleness=-1)


# ---------------------------------------------------------------------------
# fd hygiene
# ---------------------------------------------------------------------------
_FDS = "/proc/self/fd"
needs_procfs = pytest.mark.skipif(
    not os.path.isdir(_FDS), reason="needs /proc/self/fd"
)


def _open_fds():
    return set(os.listdir(_FDS))


@needs_procfs
def test_service_close_releases_wal_fd_and_is_idempotent(
    tmp_path, dataset
):
    before = _open_fds()
    service = SkylineService(dataset, storage_dir=tmp_path / "p")
    service.insert_rows([dataset.row(0)])  # WAL handle now open
    assert _open_fds() - before  # it really holds a descriptor
    service.close()
    service.close()  # double-close must be a no-op
    assert not (_open_fds() - before)


@needs_procfs
def test_recovered_service_close_releases_fds(tmp_path, dataset):
    with SkylineService(dataset, storage_dir=tmp_path / "p") as service:
        service.insert_rows([dataset.row(0)])
    before = _open_fds()
    recovered = SkylineService.recover(tmp_path / "p")
    assert recovered.version == 1
    recovered.close()
    assert not (_open_fds() - before)


@needs_procfs
def test_failstopped_service_close_releases_fds(tmp_path, dataset):
    from repro.exceptions import StorageUnavailable

    before = _open_fds()
    service = SkylineService(dataset, storage_dir=tmp_path / "p")
    plan = FaultPlan(rules=[
        FaultRule(site="wal.append", kind="enospc", at=(1,)),
    ])
    with faults.use(plan):
        with pytest.raises(StorageUnavailable):
            service.insert_rows([dataset.row(0)])
    assert service.health == "degraded"
    service.close()
    assert not (_open_fds() - before)


@needs_procfs
def test_follower_lifecycle_releases_fds(tmp_path, dataset):
    before = _open_fds()
    primary = SkylineService(dataset, storage_dir=tmp_path / "p")
    follower = Follower(LocalReplicationSource(primary), poll_interval=0.01)
    follower.sync()
    follower.start()
    primary.insert_rows([dataset.row(0)])
    assert follower.wait_for_version(1, timeout=10.0)
    follower.close()
    follower.close()  # idempotent
    primary.close()
    assert not (_open_fds() - before)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_replication_cli_requires_smoke_flag(capsys):
    from repro.replication.__main__ import main

    with pytest.raises(SystemExit):
        main([])


def test_replication_smoke_passes_in_process(monkeypatch):
    from repro.replication.__main__ import main

    # An armed REPRO_FAULTS would install a process-wide plan.
    monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
    assert main(["--smoke", "--points", "60", "--followers", "1"]) == 0
