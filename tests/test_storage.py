"""Durability tests: WAL framing, snapshot round trips, kill-and-recover.

The centrepiece is the kill-and-recover differential suite: a durable
service absorbs interleaved queries and mutations (checkpointing
mid-stream), "crashes" (the in-memory object is dropped - every WAL
append was fsync'd, so nothing else is needed), recovers, and every
post-recovery answer is compared against a from-scratch skyline over
the recovered rows - the same oracle discipline ``tests/test_oracle.py``
and the update hammer established.
"""

from __future__ import annotations

import errno
import json
import random

import pytest

from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.datagen import SyntheticConfig, generate
from repro.datagen.generator import frequent_value_template
from repro.datagen.queries import generate_preferences
from repro import faults
from repro.exceptions import StorageError, StorageUnavailable
from repro.faults import FaultPlan, FaultRule
from repro.serve.service import SkylineService
from repro.storage import (
    CheckpointPolicy,
    DurableStore,
    WriteAheadLog,
    dataset_state,
    read_snapshot,
    restore_dataset,
    schema_fingerprint,
    schema_from_fingerprint,
    write_snapshot,
)
from repro.storage.snapshot import preference_from_dict, preference_to_dict
from repro.updates.dataset import DynamicDataset

SCHEMA = Schema(
    [numeric_min("price"), numeric_min("dist"), nominal("g", ["T", "H", "M"])]
)


def small_dynamic() -> DynamicDataset:
    data = DynamicDataset.from_dataset(
        Dataset(
            SCHEMA,
            [(10, 5, "T"), (8, 7, "H"), (12, 4, "M"), (9, 9, "T")],
        )
    )
    data.append([(7, 8, "M"), (11, 3, "H")])
    data.delete([1])
    return data


class TestWriteAheadLog:
    def test_roundtrip_and_order(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 1, "rows": [[1, 2, "T"]]})
            wal.append({"op": "delete", "version": 2, "ids": [0]})
            wal.append({"op": "compact", "version": 3})
        records, torn = WriteAheadLog.read_records(path)
        assert not torn
        assert [r["op"] for r in records] == ["insert", "delete", "compact"]
        assert [r["version"] for r in records] == [1, 2, 3]

    def test_missing_and_empty_files_read_as_empty(self, tmp_path):
        assert WriteAheadLog.read_records(tmp_path / "absent.log") == ([], False)
        (tmp_path / "empty.log").write_bytes(b"")
        assert WriteAheadLog.read_records(tmp_path / "empty.log") == ([], False)

    def test_torn_tail_is_dropped_and_repaired(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 1, "rows": []})
            wal.append({"op": "insert", "version": 2, "rows": []})
        intact = path.read_bytes()
        # Crash mid-append: half a record at the tail.
        path.write_bytes(intact + b'deadbeef {"op": "ins')
        records, torn = WriteAheadLog.read_records(path)
        assert torn and [r["version"] for r in records] == [1, 2]
        # repair() also truncates, so appends can safely resume.
        records, torn = WriteAheadLog.repair(path)
        assert torn and len(records) == 2
        assert path.read_bytes() == intact
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 3, "rows": []})
        records, torn = WriteAheadLog.read_records(path)
        assert not torn and [r["version"] for r in records] == [1, 2, 3]

    def test_injected_enospc_before_write_leaves_wal_intact(self, tmp_path):
        path = tmp_path / "wal.log"
        plan = FaultPlan(rules=[
            FaultRule(site="wal.append", kind="enospc", at=(2,)),
        ])
        with WriteAheadLog(path) as wal, faults.use(plan):
            wal.append({"op": "insert", "version": 1, "rows": []})
            with pytest.raises(OSError) as info:
                wal.append({"op": "insert", "version": 2, "rows": []})
            assert info.value.errno == errno.ENOSPC
            wal.append({"op": "insert", "version": 2, "rows": []})
        records, torn = WriteAheadLog.read_records(path)
        # ENOSPC fired before any byte left: no torn tail, no gap.
        assert not torn and [r["version"] for r in records] == [1, 2]

    def test_injected_enospc_mid_record_tears_then_repairs(self, tmp_path):
        """Disk fills *mid-frame*: the torn tail is detected and cut.

        The ``torn`` fault writes half the frame (flushed and fsync'd,
        as a real ENOSPC mid-write would leave it) before failing the
        append.  Readers must drop the partial record; ``repair()``
        must truncate it so appends can resume on a clean tail.
        """
        path = tmp_path / "wal.log"
        plan = FaultPlan(rules=[
            FaultRule(site="wal.append", kind="torn", at=(3,)),
        ])
        with WriteAheadLog(path) as wal, faults.use(plan):
            wal.append({"op": "insert", "version": 1, "rows": []})
            wal.append({"op": "insert", "version": 2, "rows": []})
            intact = path.read_bytes()
            with pytest.raises(OSError) as info:
                wal.append({"op": "insert", "version": 3, "rows": []})
            assert info.value.errno == errno.ENOSPC
        assert len(path.read_bytes()) > len(intact)  # partial frame on disk
        records, torn = WriteAheadLog.read_records(path)
        assert torn and [r["version"] for r in records] == [1, 2]
        records, torn = WriteAheadLog.repair(path)
        assert torn and path.read_bytes() == intact
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 3, "rows": []})
        records, torn = WriteAheadLog.read_records(path)
        assert not torn and [r["version"] for r in records] == [1, 2, 3]

    def test_corrupt_crc_tail_is_dropped(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 1, "rows": []})
            wal.append({"op": "insert", "version": 2, "rows": []})
        raw = path.read_bytes()
        # Flip one byte inside the last record's body.
        path.write_bytes(raw[:-3] + bytes([raw[-3] ^ 0xFF]) + raw[-2:])
        records, torn = WriteAheadLog.read_records(path)
        assert torn and [r["version"] for r in records] == [1]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"op": "insert", "version": 1, "rows": []})
            wal.append({"op": "insert", "version": 2, "rows": []})
        raw = path.read_bytes()
        first_end = raw.index(b"\n") + 1
        mangled = b"garbage line\n" + raw[first_end:]
        path.write_bytes(mangled)
        with pytest.raises(StorageError, match="corrupt at record 0"):
            WriteAheadLog.read_records(path)

    def test_append_after_close_raises(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(StorageError, match="closed"):
            wal.append({"op": "compact", "version": 1})


class TestPreferenceDict:
    def test_roundtrip(self):
        pref = Preference({"A": ["x", "y"], "B": ["z"]})
        assert preference_from_dict(preference_to_dict(pref)) == pref

    def test_empty(self):
        assert preference_from_dict(preference_to_dict(Preference.empty())) == (
            Preference.empty()
        )


class TestSnapshot:
    def test_schema_fingerprint_roundtrip(self):
        fingerprint = schema_fingerprint(SCHEMA)
        rebuilt = schema_from_fingerprint(
            json.loads(json.dumps(fingerprint))
        )
        assert rebuilt == SCHEMA

    def test_dataset_state_roundtrip_preserves_everything(self, tmp_path):
        data = small_dynamic()
        path = write_snapshot(
            tmp_path / "snapshot-3.json", {"data": dataset_state(data)}
        )
        restored = restore_dataset(read_snapshot(path)["data"])
        assert restored.version == data.version == 2
        assert restored.compactions == data.compactions
        assert restored.ids == data.ids
        assert restored.num_slots == data.num_slots
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        assert [restored.row(i) for i in restored.ids] == [
            data.row(i) for i in data.ids
        ]

    def test_restore_never_re_encodes(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = write_snapshot(
            tmp_path / "snapshot-3.json", {"data": dataset_state(data)}
        )
        document = read_snapshot(path)

        import repro.updates.dataset as dataset_module

        def poisoned(*args, **kwargs):
            raise AssertionError("restore must not re-encode rows")

        monkeypatch.setattr(dataset_module, "_encode_rows", poisoned)
        restored = restore_dataset(document["data"])
        assert list(restored.canonical_rows) == list(data.canonical_rows)

    def test_restored_dataset_keeps_mutating(self):
        data = small_dynamic()
        restored = restore_dataset(json.loads(json.dumps(
            {"data": dataset_state(data)}))["data"])
        new_ids = restored.append([(6, 6, "T")])
        assert new_ids == [restored.num_slots - 1]
        assert restored.version == data.version + 1

    def test_binary_payload_roundtrip(self, tmp_path, monkeypatch):
        """Above the threshold the canonical matrix moves to a sidecar.

        The document must read back identically to the inline flavour
        (typed rows: nominal ids as ints), and the sidecar is written
        before the document referencing it.
        """
        pytest.importorskip("numpy")
        import repro.storage.snapshot as snapshot_module

        monkeypatch.setattr(
            snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 4
        )
        data = small_dynamic()
        path = write_snapshot(
            tmp_path / "snapshot-2.json", {"data": dataset_state(data)}
        )
        assert (tmp_path / "snapshot-2.npy").exists()
        restored = restore_dataset(read_snapshot(path)["data"])
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        assert restored.canonical_rows[0][2] == data.canonical_rows[0][2]
        assert isinstance(restored.canonical_rows[0][2], int)  # nominal id
        assert [restored.row(i) for i in restored.ids] == [
            data.row(i) for i in data.ids
        ]

    def test_binary_payload_survives_service_recovery(
        self, tmp_path, monkeypatch
    ):
        pytest.importorskip("numpy")
        import repro.storage.snapshot as snapshot_module

        monkeypatch.setattr(
            snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 8
        )
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 3, seed=21, live=live)
        service.checkpoint()
        version = service.version
        answers = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        assert list((tmp_path / "state").glob("snapshot-*.npy"))
        del service
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref, expected in answers.items():
            assert recovered.query(pref, use_cache=False).ids == expected

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        path = write_snapshot(
            tmp_path / "snapshot-0.json",
            {"data": dataset_state(small_dynamic())},
        )
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_read_rejects_foreign_and_unversioned_documents(self, tmp_path):
        alien = tmp_path / "other.json"
        alien.write_text('{"hello": "world"}')
        with pytest.raises(StorageError, match="not a repro snapshot"):
            read_snapshot(alien)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(
            '{"kind": "repro-durable-snapshot", "format_version": 99}'
        )
        with pytest.raises(StorageError, match="unsupported snapshot format"):
            read_snapshot(wrong)


class TestDurableStore:
    def _document(self, data):
        return {"data": dataset_state(data)}

    def test_checkpoint_rotates_and_prunes(self, tmp_path):
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 1})
        data.append([(1, 1, "T")])
        store.checkpoint(self._document(data), data.version)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["snapshot-3.json", "wal-3.log"]
        assert store.ops_since_checkpoint == 0
        assert store.checkpoints == 2

    def test_policy_triggers_on_ops_and_bytes(self, tmp_path):
        store = DurableStore(tmp_path, CheckpointPolicy(every_ops=2))
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": 4})
        assert not store.should_checkpoint()
        store.log({"op": "compact", "version": 5})
        assert store.should_checkpoint()

        byted = DurableStore(
            tmp_path / "b", CheckpointPolicy(wal_bytes=64)
        )
        byted.checkpoint(self._document(data), data.version)
        assert not byted.should_checkpoint()
        byted.log({"op": "insert", "version": 4, "rows": [[1, 1, "T"]] * 8})
        assert byted.should_checkpoint()

    def test_policy_rejects_non_positive_knobs(self):
        with pytest.raises(StorageError, match="every_ops"):
            CheckpointPolicy(every_ops=0)
        with pytest.raises(StorageError, match="wal_bytes"):
            CheckpointPolicy(wal_bytes=-1)

    def test_recover_requires_a_snapshot(self, tmp_path):
        with pytest.raises(StorageError, match="nothing to recover"):
            DurableStore(tmp_path).recover()

    def test_recover_rejects_discontinuous_wal(self, tmp_path):
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 2})  # gap!
        with pytest.raises(StorageError, match="does not continue"):
            DurableStore(tmp_path).recover()

    def test_recover_picks_newest_snapshot_and_resumes(self, tmp_path):
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 1})
        recovered = DurableStore(tmp_path).recover()
        assert recovered.snapshot_version == data.version
        assert [r["version"] for r in recovered.tail] == [data.version + 1]
        assert not recovered.torn_tail

    def test_failed_append_fail_stops_until_checkpoint(self, tmp_path):
        """A failed WAL append must not let later appends create a gap.

        After a failed append the directory's history ends one batch
        behind memory; logging the *next* batch would write a version
        gap that recovery refuses forever.  The store therefore
        fail-stops, and a successful checkpoint (which snapshots the
        whole in-memory state, un-logged batch included) heals it.
        """
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        with pytest.raises(StorageError):  # object() is unserialisable
            store.log({"op": "insert", "version": 3, "rows": [object()]})
        with pytest.raises(StorageError, match="fail"):
            store.log({"op": "compact", "version": 4})  # would be a gap
        # The directory is still recoverable at the last durable state.
        assert DurableStore(tmp_path).recover().snapshot_version == 2
        # A checkpoint at the in-memory version heals the store.
        data.append([(1, 1, "T")])  # the "absorbed but unlogged" batch
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 1})
        recovered = DurableStore(tmp_path).recover()
        assert recovered.snapshot_version == data.version

    def test_unreadable_newest_snapshot_falls_back(self, tmp_path):
        """A half-visible checkpoint generation must not block recovery.

        Losing the newest snapshot's directory entry (crash before the
        checkpoint's directory fsync) leaves the older complete
        generation behind; recovery falls back to it as long as no
        batch was acknowledged on top of the lost snapshot.
        """
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 1})
        # Crash mid-checkpoint at version 4: only a torn document
        # landed - no WAL rotation, no pruning (both run later).
        (tmp_path / "snapshot-4.json").write_text(
            '{"kind": "repro-durable-snapshot"'
        )
        recovered = DurableStore(tmp_path).recover()
        assert recovered.snapshot_version == 2
        assert [r["version"] for r in recovered.tail] == [3]

    def test_fallback_refused_when_acknowledged_history_would_drop(
        self, tmp_path
    ):
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint(self._document(data), data.version)
        store.log({"op": "compact", "version": data.version + 1})
        # An unreadable snapshot *with* committed records on its WAL is
        # corruption, not a crash window - falling back would silently
        # drop the acknowledged version-5 batch.  Refuse loudly.
        (tmp_path / "snapshot-4.json").write_text("rotten")
        with WriteAheadLog(tmp_path / "wal-4.log") as wal:
            wal.append({"op": "compact", "version": 5})
        with pytest.raises(StorageError, match="acknowledged history"):
            DurableStore(tmp_path).recover()


def make_durable_service(tmp_path, **kwargs):
    """A small synthetic service with durability attached."""
    base = generate(
        SyntheticConfig(
            num_points=120, num_numeric=2, num_nominal=2,
            cardinality=4, seed=11,
        )
    )
    template = frequent_value_template(base)
    service = SkylineService(
        base, template, cache_capacity=32,
        storage_dir=tmp_path / "state", **kwargs,
    )
    prefs = generate_preferences(
        base, order=2, count=6, template=template, seed=3
    )
    return base, template, service, prefs


def oracle(service, pref):
    """From-scratch skyline over the served rows, in dynamic id space."""
    snap = service.data_snapshot()
    translate = (
        service._dynamic.snapshot_ids()
        if service._dynamic is not None
        else tuple(range(len(snap)))
    )
    return tuple(
        sorted(
            translate[i]
            for i in skyline(snap, pref, template=service.template).ids
        )
    )


def churn(service, base, rounds, *, seed, live, compact_at=None):
    """Interleave inserts/deletes/queries; returns the surviving ids."""
    extra = generate(
        SyntheticConfig(
            num_points=80, num_numeric=2, num_nominal=2,
            cardinality=4, seed=seed + 100,
        )
    )
    rng = random.Random(seed)
    for round_no in range(rounds):
        if round_no % 2 == 0:
            report = service.insert_rows(
                [extra.row(rng.randrange(len(extra))) for _ in range(3)]
            )
            live.extend(report.point_ids)
        else:
            victims = rng.sample(live, 2)
            service.delete_rows(victims)
            for victim in victims:
                live.remove(victim)
        if compact_at is not None and round_no == compact_at:
            remap = service.compact()
            live[:] = sorted(remap[i] for i in live)
    return live


class TestKillAndRecover:
    def test_recovery_answers_at_the_pre_crash_version(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 4, seed=5, live=live)
        for pref in prefs:
            service.query(pref)
        service.checkpoint()                      # snapshot mid-stream
        churn(service, base, 3, seed=9, live=live)  # WAL tail on top
        pre_crash_version = service.version
        pre_crash = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        del service                               # crash

        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == pre_crash_version
        assert sorted(recovered._dynamic.ids) == sorted(live)
        for pref in prefs + [None]:
            answer = recovered.query(pref, use_cache=False).ids
            assert answer == oracle(recovered, pref)
            if pref in pre_crash:
                assert answer == pre_crash[pref]

    def test_recovered_structures_match_fresh_builds(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 5, seed=2, live=live)
        service.checkpoint()
        churn(service, base, 2, seed=4, live=live)
        del service

        recovered = SkylineService.recover(tmp_path / "state")
        recovered.refresh_structures()   # churny tail may leave MDC stale
        for route in recovered.available_routes():
            for pref in prefs:
                assert recovered.query(
                    pref, use_cache=False, route=route
                ).ids == oracle(recovered, pref), route

    def test_stale_tree_checkpoint_recovers_to_fresh_answers(self, tmp_path):
        """A checkpoint taken while the indexes were stale.

        Snapshots carry no index: recovery regrows the IPO-tree from
        the maintained skylines, so the recovered tree is fresh and
        answers exactly on the ipo route.
        """
        from repro.serve.planner import PlannerConfig

        base, template, service, prefs = make_durable_service(
            tmp_path,
            planner_config=PlannerConfig(incremental_update_ratio=0.001),
        )
        live = list(range(len(base)))
        for pref in prefs:           # queries arm the churn gate ...
            service.query(pref)
        churn(service, base, 4, seed=17, live=live)   # ... updates trip it
        assert service._indexes_stale, "setup must leave the tree stale"
        service.checkpoint()
        version = service.version
        del service

        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        assert not recovered._indexes_stale
        for pref in prefs:
            assert recovered.query(
                pref, use_cache=False, route="ipo"
            ).ids == oracle(recovered, pref)

    def test_snapshot_in_the_tree_carrying_format_recovers(self, tmp_path):
        """Documents from when snapshots held the serialized IPO-tree.

        That format has ``tree`` / ``tree_stale`` entries and no
        ``with_tree``; a non-null ``tree`` means the service had one.
        Its content is not read: the tree is regrown, and answers
        exactly even where the old entry was stale.
        """
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 4, seed=19, live=live)
        document = json.loads(json.dumps(service._durable_state()))
        del document["with_tree"]
        document["tree"] = {"format_version": 1, "root": None}
        document["tree_stale"] = True

        restored = SkylineService.from_snapshot(document)
        assert restored.tree is not None
        assert not restored._indexes_stale
        snap = restored.data_snapshot()
        translate = restored._dynamic.snapshot_ids()
        for pref in prefs:
            expected = skyline(
                snap, pref, template=template, algorithm="bruteforce"
            ).ids
            assert restored.query(pref, use_cache=False, route="ipo").ids == (
                tuple(sorted(translate[i] for i in expected))
            )
        document["tree"] = None
        assert SkylineService.from_snapshot(document).tree is None

    def test_snapshots_carry_no_tree(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        document = service._durable_state()
        assert document["with_tree"] is True
        assert "tree" not in document and "tree_stale" not in document

    def test_recovery_computes_one_condition_store(
        self, tmp_path, monkeypatch
    ):
        """Recovery replays its WAL tail, then builds the indexes once.

        Every batch after the (initial) checkpoint changes the template
        skyline, and none is followed by a query, so the churn gate
        would let each one rebuild both indexes.  The replay builds no
        index; one condition store feeds the tree and the filter after
        it, however long the tail.
        """
        from repro.mdc.mdc import ConditionStore

        base, template, service, prefs = make_durable_service(tmp_path)
        assert service.tree is not None and service.mdc is not None
        assert service.adaptive is not None
        for step in range(4):
            row = tuple(
                -(10**6) - step if spec.domain is None else spec.domain[0]
                for spec in base.schema
            )
            report = service.insert_rows([row])
            assert report.skyline_entered == report.point_ids
        version = service.version
        del service

        computed = []
        compute = ConditionStore.compute

        def counting(*args, **kwargs):
            computed.append(args)
            return compute(*args, **kwargs)

        monkeypatch.setattr(ConditionStore, "compute", staticmethod(counting))
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        assert len(computed) == 1
        assert not recovered._indexes_stale
        for route in ("ipo", "mdc"):
            for pref in prefs:
                assert recovered.query(
                    pref, use_cache=False, route=route
                ).ids == oracle(recovered, pref), route

    def test_recovery_replays_a_compact_record(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        service.checkpoint()
        churn(service, base, 4, seed=6, live=live, compact_at=2)
        version = service.version
        answers = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        del service

        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref, expected in answers.items():
            assert recovered.query(pref, use_cache=False).ids == expected

    def test_recovered_service_is_durable_again(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 2, seed=8, live=live)
        del service

        first = SkylineService.recover(tmp_path / "state")
        churn(first, base, 2, seed=12, live=live)
        version = first.version
        answers = {
            pref: first.query(pref, use_cache=False).ids for pref in prefs
        }
        del first

        second = SkylineService.recover(tmp_path / "state")
        assert second.version == version
        for pref, expected in answers.items():
            assert second.query(pref, use_cache=False).ids == expected
            assert second.query(pref, use_cache=False).ids == oracle(
                second, pref
            )

    def test_auto_checkpoint_policy_bounds_the_wal(self, tmp_path):
        base, template, service, prefs = make_durable_service(
            tmp_path, checkpoint_every=2
        )
        live = list(range(len(base)))
        churn(service, base, 5, seed=3, live=live)
        store = service.storage
        assert store.checkpoints >= 2          # initial + automatic ones
        assert store.ops_since_checkpoint < 2
        version = service.version
        del service

        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref in prefs:
            assert recovered.query(
                pref, use_cache=False
            ).ids == oracle(recovered, pref)

    def test_torn_wal_tail_recovers_to_last_committed_batch(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 3, seed=7, live=live)
        version = service.version
        del service

        wal_path = next((tmp_path / "state").glob("wal-*.log"))
        with open(wal_path, "ab") as handle:
            handle.write(b'00000000 {"op": "insert", "vers')  # torn append
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref in prefs:
            assert recovered.query(
                pref, use_cache=False
            ).ids == oracle(recovered, pref)

    def test_static_service_round_trips_at_version_zero(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        answers = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        del service
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == 0
        for pref, expected in answers.items():
            assert recovered.query(pref, use_cache=False).ids == expected

    def test_constructing_over_existing_state_is_refused(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        del service
        with pytest.raises(StorageError, match="recover"):
            SkylineService(
                generate(SyntheticConfig(num_points=10, seed=1)),
                storage_dir=tmp_path / "state",
            )

    def test_checkpoint_requires_storage(self):
        service = SkylineService(
            generate(SyntheticConfig(num_points=10, seed=1))
        )
        with pytest.raises(StorageError, match="storage_dir"):
            service.checkpoint()

    def test_failed_log_degrades_service_until_checkpoint(self, tmp_path):
        """A WAL append failure degrades the write path, not the service.

        Logging is write-ahead: the failing batch raises
        ``StorageUnavailable`` with *nothing* applied, the service
        enters degraded read-only mode (queries keep answering, further
        mutations are rejected before touching state), and a successful
        ``checkpoint()`` re-arms writes; recovery then agrees with the
        healed service.
        """
        base, template, service, prefs = make_durable_service(tmp_path)
        service.insert_rows([base.row(0)])
        service.storage._wal.close()      # induce an append failure
        with pytest.raises(StorageUnavailable):
            service.insert_rows([base.row(1)])
        version_after_failure = service.version
        assert service.health == "degraded"
        with pytest.raises(StorageUnavailable, match="read-only"):
            service.insert_rows([base.row(2)])
        with pytest.raises(StorageUnavailable, match="read-only"):
            service.delete_rows([0])
        assert service.version == version_after_failure  # nothing applied
        assert service.query(prefs[0], use_cache=False).version == (
            version_after_failure
        )                                 # reads keep serving
        stats = service.stats()
        assert stats.health == "degraded"
        assert stats.degraded_transitions == 1
        service.checkpoint()              # heals store, re-arms writes
        assert service.health == "healthy"
        assert service.stats().recoveries == 1
        service.insert_rows([base.row(3)])
        version = service.version
        answers = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        del service
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref, expected in answers.items():
            assert recovered.query(pref, use_cache=False).ids == expected

    def test_enospc_mid_record_degrades_then_recovery_agrees(self, tmp_path):
        """End-to-end torn append: degrade, repair via checkpoint, recover.

        An injected disk-full *mid-frame* leaves a torn tail on the live
        WAL.  The mutation must raise ``StorageUnavailable`` with
        nothing applied, a checkpoint must repair the store (the torn
        bytes never reach a recovered state), and recovery must land on
        exactly the acknowledged version.
        """
        base, template, service, prefs = make_durable_service(tmp_path)
        service.insert_rows([base.row(0)])
        acked_version = service.version
        plan = FaultPlan(rules=[
            FaultRule(site="wal.append", kind="torn", times=1),
        ])
        with faults.use(plan):
            with pytest.raises(StorageUnavailable):
                service.insert_rows([base.row(1)])
        assert plan.injected() == {"wal.append:torn": 1}
        wal_path = next((tmp_path / "state").glob("wal-*.log"))
        _, torn = WriteAheadLog.read_records(wal_path)
        assert torn                        # the partial frame is on disk
        assert service.health == "degraded"
        assert service.version == acked_version
        service.checkpoint()               # snapshot + fresh WAL
        assert service.health == "healthy"
        service.insert_rows([base.row(2)])
        version = service.version
        answers = {
            pref: service.query(pref, use_cache=False).ids for pref in prefs
        }
        del service
        recovered = SkylineService.recover(tmp_path / "state")
        assert recovered.version == version
        for pref, expected in answers.items():
            assert recovered.query(pref, use_cache=False).ids == expected

    def test_recovered_version_stamps_serve_results(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        churn(service, base, 2, seed=13, live=live)
        version = service.version
        del service
        recovered = SkylineService.recover(tmp_path / "state")
        result = recovered.query(prefs[0], use_cache=False)
        assert result.version == version

    def test_recovered_service_routes_like_the_crashed_one(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        live = list(range(len(base)))
        for pref in prefs:
            service.query(pref)
        churn(service, base, 8, seed=23, live=live)  # 20 updates, 6 queries
        service.checkpoint()  # the gate window rides in the snapshot
        before = service.query(prefs[0], use_cache=False)
        assert before.route == "adaptive" and "churn-heavy" in before.reason
        del service

        recovered = SkylineService.recover(tmp_path / "state")
        after = recovered.query(prefs[0], use_cache=False)
        assert after.route == "adaptive" and "churn-heavy" in after.reason
        assert after.ids == before.ids == oracle(recovered, prefs[0])

    def test_snapshot_without_gate_fields_reads_as_zero(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)
        document = service._durable_state()
        del document["gate_updates"], document["gate_queries"]
        restored = SkylineService.from_snapshot(document)
        assert (restored._gate_updates, restored._gate_queries) == (0, 0)

    def test_adaptive_view_equals_rebuild_through_mutations(self, tmp_path):
        base, template, service, prefs = make_durable_service(tmp_path)

        def check(svc):
            view = svc.adaptive.skyline_ids
            assert view == list(svc._maintainer.ids)
            svc.adaptive.rebuild()
            assert svc.adaptive.skyline_ids == view
            for pref in prefs:
                got = svc.query(pref, use_cache=False, route="adaptive")
                assert got.ids == oracle(svc, pref)

        members = service.adaptive.skyline_ids[:3]
        # Each new row beats one member numerically: evictions.
        service.insert_rows(
            [(r[0] - 1, r[1] - 1) + tuple(r[2:]) for r in map(base.row, members)]
        )
        check(service)
        # Deleting members re-admits the rows they shadowed.
        service.delete_rows(service.adaptive.skyline_ids[:3])
        check(service)
        service.compact()
        check(service)
        service.delete_rows(service.adaptive.skyline_ids[:2])
        del service
        check(SkylineService.recover(tmp_path / "state"))


class TestServeCLI:
    def run(self, argv):
        from repro.serve.__main__ import main

        return main(argv)

    @pytest.mark.parametrize("flag", ["--batch", "--concurrency"])
    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    def test_non_positive_pool_flags_are_argparse_errors(self, flag, value,
                                                         capsys):
        with pytest.raises(SystemExit) as excinfo:
            self.run([flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err

    def test_storage_flags_require_storage_dir(self, capsys):
        for argv in (["--recover"], ["--checkpoint"],
                     ["--checkpoint-every", "4"]):
            with pytest.raises(SystemExit) as excinfo:
                self.run(argv)
            assert excinfo.value.code == 2
        assert "--storage-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--listen", "127.0.0.1:0"],
                                      ["--service-config", "service.json"]])
    def test_server_flags_are_gone(self, argv, capsys):
        # repro.net is the one server entry point.  Parsing only: a
        # parser that still took the flag would start serving.
        from repro.serve.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_checkpoint_then_recover_round_trip(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        small = ["--points", "80", "--queries", "10", "--cardinality", "4",
                 "--concurrency", "2", "--workloads", "hot"]
        assert self.run(small + ["--storage-dir", state,
                                 "--checkpoint"]) == 0
        assert self.run(small + ["--storage-dir", state, "--recover"]) == 0
        err = capsys.readouterr().err
        assert "recovered from" in err


class TestNetCLI:
    def test_recover_boots_and_serves_checkpointed_version(self, tmp_path):
        from repro.net import NetClient, ServerConfig, ServerThread
        from repro.net.__main__ import build_parser
        from repro.serve.__main__ import build_service

        state = tmp_path / "state"
        base = generate(SyntheticConfig(num_points=60, cardinality=4, seed=5))
        service = SkylineService(
            base, frequent_value_template(base), storage_dir=state
        )
        service.insert_rows([base.row(0)])
        service.delete_rows([1, 2])
        service.checkpoint()
        version, ids = service.version, service.query(use_cache=False).ids
        service.close()

        args = build_parser().parse_args(
            ["--storage-dir", str(state), "--recover"]
        )
        recovered = build_service(args)
        try:
            assert recovered.cache.capacity == 256  # net's default
            config = ServerConfig(port=0, access_log=False)
            with ServerThread(recovered, config) as thread:
                with NetClient(thread.host, thread.port) as client:
                    answer = client.query(None, use_cache=False)
            assert answer.status == 200
            assert answer.json["version"] == version
            assert answer.json["ids"] == list(ids)
        finally:
            recovered.close()

    @pytest.mark.parametrize("argv", [["--recover"],
                                      ["--checkpoint-every", "4"],
                                      ["--checkpoint-wal-bytes", "64"]])
    def test_storage_flags_require_storage_dir(self, argv, capsys):
        # The check main() runs before it builds anything; calling
        # main() itself would serve forever if the check were lost.
        from repro.net.__main__ import build_parser
        from repro.serve.__main__ import apply_service_arguments

        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            apply_service_arguments(parser, parser.parse_args(argv))
        assert excinfo.value.code == 2
        assert "--storage-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--listen", "--follow"])
    def test_bad_address_is_an_argparse_error(self, flag, capsys):
        from repro.net.__main__ import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([flag, "8080"])
        assert excinfo.value.code == 2
        assert "HOST:PORT" in capsys.readouterr().err
