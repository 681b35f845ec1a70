"""Zero-copy columnar backing store: v2 snapshots, borrowed datasets.

Three concerns, one file:

1. **Format v2 round trips** - the column-major ``.npy`` sidecar plus
   compact liveness reads back identically through every tier (mmap'd
   borrow, eager decode, inline JSON), including the hypothesis suite
   over nasty payloads (nominal domains wider than a byte, negative
   and denormal floats, single-row and zero-live-row states) and the
   v1 compat shim (old documents load, the next write re-stamps v2).
2. **Ownership and lifetime** - a borrowed mmap survives derived
   ``Dataset`` views, ``compact()`` is the one materialization point,
   ``close()`` releases the only file descriptor and is idempotent,
   and restoring a borrowed base never re-encodes (poisoned encoder).
3. **Crash ordering** - an injected fault between the sidecar fsync
   and its publication must leave the previous snapshot generation
   fully intact (the referencing document is never written).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.attributes import Schema, nominal, numeric_max, numeric_min
from repro.core.colstore import ChainRows, growable_rows
from repro.core.dataset import Dataset
from repro.engine.bitset_backend import _bucket_template
from repro.engine.columnar import numpy_available
from repro.exceptions import DatasetError, StorageError
from repro.faults import FaultPlan, FaultRule
from repro.serve.service import SkylineService
from repro.storage import DurableStore, dataset_state, restore_dataset
from repro.storage.snapshot import (
    MMAP_ENV,
    read_snapshot,
    read_snapshot_header,
    resolve_mmap_mode,
    schema_fingerprint,
    write_snapshot,
)
from repro.updates.dataset import DynamicDataset

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

_FDS = "/proc/self/fd"
needs_procfs = pytest.mark.skipif(
    not os.path.isdir(_FDS), reason="needs /proc/self/fd"
)


def _open_fds():
    return set(os.listdir(_FDS))


SCHEMA = Schema(
    [numeric_min("price"), numeric_min("dist"), nominal("g", ["T", "H", "M"])]
)

ROWS = [(10, 5, "T"), (8, 7, "H"), (12, 4, "M"), (9, 9, "T"), (7, 8, "M")]


def small_dynamic() -> DynamicDataset:
    data = DynamicDataset.from_dataset(Dataset(SCHEMA, ROWS))
    data.delete([1])
    return data


def sidecar_snapshot(tmp_path, monkeypatch, data, name="snapshot-1.json"):
    """Write ``data`` with the sidecar threshold forced below its size."""
    import repro.storage.snapshot as snapshot_module

    monkeypatch.setattr(snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 1)
    path = write_snapshot(tmp_path / name, {"data": dataset_state(data)})
    assert path.with_suffix(".npy").exists()
    return path


# ---------------------------------------------------------------------------
# format v2 round trips
# ---------------------------------------------------------------------------


@needs_numpy
class TestV2RoundTrip:
    def test_mmap_read_restores_borrowed_store(self, tmp_path, monkeypatch):
        from repro.core.colstore import BorrowedColumnStore

        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        document = read_snapshot(path, mmap=True)
        assert isinstance(document["data"]["canonical"], BorrowedColumnStore)
        restored = restore_dataset(document["data"])
        assert restored.base_store is document["data"]["canonical"]
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        assert [restored.row(i) for i in restored.ids] == [
            data.row(i) for i in data.ids
        ]
        assert restored.version == data.version
        restored.base_store.close()

    def test_off_and_mmap_tiers_agree(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        from repro.core.colstore import BorrowedColumnStore

        eager = restore_dataset(read_snapshot(path, mmap=False)["data"])
        mapped = restore_dataset(read_snapshot(path, mmap=True)["data"])
        # The eager tier owns its rows outright - no borrowed handle.
        assert not isinstance(eager.base_store, BorrowedColumnStore)
        assert list(eager.canonical_rows) == list(mapped.canonical_rows)
        assert [eager.row(i) for i in eager.ids] == [
            mapped.row(i) for i in mapped.ids
        ]
        mapped.base_store.close()

    def test_header_read_skips_the_payload(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        before = _open_fds() if os.path.isdir(_FDS) else None
        header = read_snapshot_header(path)
        if before is not None:
            assert not (_open_fds() - before)  # the sidecar stayed closed
        assert header["format_version"] == 2
        assert header["data"]["slots"] == data.num_slots
        assert header["data"]["dead"] == 1
        assert header["data"]["data_version"] == data.version
        assert "canonical" not in header["data"]

    def test_v1_document_loads_and_is_rewritten_as_v2(self, tmp_path):
        data = small_dynamic()
        canonical = [list(row) for row in data.canonical_rows]
        v1 = {
            "kind": "repro-durable-snapshot",
            "format_version": 1,
            "data": {
                "schema": schema_fingerprint(SCHEMA),
                "canonical": canonical,
                "alive": list(data.alive_flags),
                "data_version": data.version,
                "compactions": 0,
            },
        }
        path = tmp_path / "snapshot-1.json"
        path.write_text(json.dumps(v1))
        restored = restore_dataset(read_snapshot(path)["data"])
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        assert sorted(restored.ids) == sorted(data.ids)
        header = read_snapshot_header(path)
        assert header["data"]["slots"] == data.num_slots
        assert header["data"]["dead"] == 1
        # The next checkpoint writes the modern layout.
        rewritten = write_snapshot(
            tmp_path / "snapshot-2.json", {"data": dataset_state(restored)}
        )
        fresh = json.loads(rewritten.read_text())
        assert fresh["format_version"] == 2
        assert fresh["data"]["slots"] == data.num_slots
        assert "alive" not in fresh["data"]

    def test_zero_live_rows_round_trip(self, tmp_path, monkeypatch):
        data = DynamicDataset.from_dataset(Dataset(SCHEMA, ROWS[:2]))
        data.delete([0, 1])
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        restored = restore_dataset(read_snapshot(path, mmap=True)["data"])
        assert list(restored.ids) == []
        assert restored.num_slots == 2
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        restored.base_store.close()

    def test_single_row_round_trip(self, tmp_path, monkeypatch):
        data = DynamicDataset.from_dataset(Dataset(SCHEMA, ROWS[:1]))
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        restored = restore_dataset(read_snapshot(path, mmap=True)["data"])
        assert restored.row(0) == data.row(0)
        restored.base_store.close()


WIDE_DOMAIN = tuple(f"v{i}" for i in range(300))  # value ids beyond a byte

HYPO_SCHEMA = Schema(
    [numeric_min("lo"), numeric_max("hi"), nominal("w", WIDE_DOMAIN)]
)

# Negative, huge, tiny and *denormal* floats all have to survive the
# float64 sidecar and the inline JSON path bit-exactly (NaN excluded:
# it breaks equality, and datasets never produce it).
nasty_float = st.one_of(
    st.sampled_from([0.0, -1.5, 5e-324, -5e-324, 1e300, -1e300, 2.5e-308]),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)

hypo_rows = st.lists(
    st.tuples(
        nasty_float, nasty_float, st.sampled_from(WIDE_DOMAIN)
    ),
    min_size=1,
    max_size=12,
)


@needs_numpy
class TestV2PropertyRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(rows=hypo_rows, dead=st.data(), mmap=st.booleans())
    def test_any_state_round_trips(self, tmp_path, rows, dead, mmap):
        data = DynamicDataset.from_dataset(Dataset(HYPO_SCHEMA, rows))
        victims = dead.draw(
            st.lists(
                st.integers(0, len(rows) - 1), unique=True, max_size=len(rows)
            )
        )
        if victims:
            data.delete(victims)
        import repro.storage.snapshot as snapshot_module

        original = snapshot_module.BINARY_PAYLOAD_THRESHOLD
        snapshot_module.BINARY_PAYLOAD_THRESHOLD = 1
        try:
            path = write_snapshot(
                tmp_path / "snap.json", {"data": dataset_state(data)}
            )
            restored = restore_dataset(
                read_snapshot(path, mmap=mmap)["data"]
            )
        finally:
            snapshot_module.BINARY_PAYLOAD_THRESHOLD = original
        try:
            assert list(restored.canonical_rows) == list(data.canonical_rows)
            assert list(restored.alive_flags) == list(data.alive_flags)
            assert [restored.row(i) for i in restored.ids] == [
                data.row(i) for i in data.ids
            ]
        finally:
            if restored.base_store is not None:
                restored.base_store.close()


# ---------------------------------------------------------------------------
# ownership and lifetime
# ---------------------------------------------------------------------------


@needs_numpy
class TestBorrowedLifetime:
    def restored(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        dyn = restore_dataset(read_snapshot(path, mmap=True)["data"])
        return data, dyn, dyn.base_store

    def test_mapping_survives_derived_views(self, tmp_path, monkeypatch):
        data, dyn, store = self.restored(tmp_path, monkeypatch)
        base = dyn.base_dataset()
        assert base.store is store  # the view borrows, it does not copy
        sub = base.subset([0, 2])
        ext = base.extended([(1, 1, "H")])
        assert [sub.row(0), sub.row(1)] == [data.row(0), data.row(2)]
        assert len(ext) == len(base) + 1
        assert ext.row(len(base)) == (1, 1, "H")
        assert ext.row(0) == base.row(0)
        store.close()

    def test_close_is_idempotent_and_releases_the_fd(
        self, tmp_path, monkeypatch
    ):
        if not os.path.isdir(_FDS):
            pytest.skip("needs /proc/self/fd")
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        before = _open_fds()
        dyn = restore_dataset(read_snapshot(path, mmap=True)["data"])
        store = dyn.base_store
        assert _open_fds() - before  # the mapping really holds an fd
        store.close()
        assert not (_open_fds() - before)
        store.close()  # double-close must be a no-op
        assert store.closed
        assert not (_open_fds() - before)

    def test_compact_is_the_one_materialization_point(
        self, tmp_path, monkeypatch
    ):
        data, dyn, store = self.restored(tmp_path, monkeypatch)
        expected = [dyn.row(i) for i in dyn.ids]
        dyn.compact()
        assert dyn.base_store is None  # base reference dropped
        store.close()  # the owner retires the mapping ...
        # ... and every row survives, because compaction copied them out.
        assert [dyn.row(i) for i in dyn.ids] == expected

    def test_borrowed_base_is_never_re_encoded(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        document = read_snapshot(path, mmap=True)

        import repro.core.dataset as core_dataset
        import repro.updates.dataset as dataset_module

        def poisoned(*args, **kwargs):
            raise AssertionError("a borrowed base must never be re-encoded")

        monkeypatch.setattr(dataset_module, "_encode_rows", poisoned)
        monkeypatch.setattr(core_dataset, "_encode_rows", poisoned)
        restored = restore_dataset(document["data"])
        base = restored.base_dataset()
        assert list(restored.canonical_rows) == list(data.canonical_rows)
        assert base.columns.matrix is restored.base_store.matrix
        restored.base_store.close()

    def test_chain_rows_refuse_nesting(self):
        chain = ChainRows([(1, 2)], [(3, 4)])
        with pytest.raises(DatasetError, match="chain over"):
            ChainRows(chain)
        grown = growable_rows(chain)
        assert grown is not chain  # shared base, private tail
        assert grown.base is chain.base
        chain.append((5, 6))
        assert list(grown) == [(1, 2), (3, 4)]

    @needs_procfs
    def test_service_close_releases_the_mapping(self, tmp_path, monkeypatch):
        import repro.storage.snapshot as snapshot_module

        from repro.datagen import SyntheticConfig, generate

        monkeypatch.setattr(snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 8)
        dataset = generate(
            SyntheticConfig(
                num_points=64, num_numeric=2, num_nominal=1,
                cardinality=4, seed=5,
            )
        )
        with SkylineService(
            dataset, storage_dir=tmp_path / "state"
        ) as service:
            service.insert_rows([dataset.row(0)])
            expected = service.query(None, use_cache=False).ids
        assert list((tmp_path / "state").glob("snapshot-*.npy"))
        before = _open_fds()
        recovered = SkylineService.recover(tmp_path / "state", mmap="require")
        assert recovered._dynamic.base_store is not None
        assert recovered.query(None, use_cache=False).ids == expected
        recovered.close()
        recovered.close()  # double-close stays a no-op
        assert not (_open_fds() - before)


@needs_numpy
class TestBitsetOnBorrowedStore:
    def test_forced_bitset_route_matches_bruteforce(
        self, tmp_path, monkeypatch
    ):
        """The bitset backend packs a recovered service's mmap'd store
        once and must still answer every later version exactly."""
        import repro.storage.snapshot as snapshot_module

        from repro.algorithms.bruteforce import bruteforce_skyline
        from repro.core.dominance import RankTable
        from repro.datagen import SyntheticConfig, generate

        monkeypatch.setattr(snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 8)
        dataset = generate(
            SyntheticConfig(
                num_points=200, num_numeric=2, num_nominal=2,
                cardinality=4, distribution="anticorrelated", seed=41,
            )
        )
        with SkylineService(dataset, storage_dir=tmp_path / "state") as svc:
            svc.insert_rows([dataset.row(0)])
            svc.checkpoint()  # the snapshot holds every row: no WAL tail
        recovered = SkylineService.recover(tmp_path / "state", mmap="require")

        def check():
            snap = recovered.data_snapshot()
            table = RankTable.compile(snap.schema, None, recovered.template)
            translate = recovered._dynamic.snapshot_ids()
            expected = sorted(
                translate[i] for i in bruteforce_skyline(
                    snap.canonical_rows, snap.ids, table, backend="python"
                )
            )
            got = recovered.query(None, route="bitset", use_cache=False)
            assert list(got.ids) == expected
            return got.ids

        try:
            assert recovered._dynamic.base_store is not None
            members = check()
            store = recovered._dynamic.columns
            assert store.matrix is recovered._dynamic.base_store.matrix
            assert _bucket_template in store._derived
            recovered.delete_rows(members[:3])
            check()
            recovered.insert_rows([dataset.row(i) for i in range(5, 25)])
            check()
        finally:
            recovered.close()


# ---------------------------------------------------------------------------
# crash ordering: the sidecar fault site
# ---------------------------------------------------------------------------


@needs_numpy
class TestSidecarFault:
    def test_fault_between_sidecar_and_document_keeps_old_generation(
        self, tmp_path, monkeypatch
    ):
        import repro.storage.snapshot as snapshot_module

        monkeypatch.setattr(snapshot_module, "BINARY_PAYLOAD_THRESHOLD", 1)
        store = DurableStore(tmp_path)
        data = small_dynamic()
        store.checkpoint({"data": dataset_state(data)}, data.version)
        survivors = sorted(p.name for p in tmp_path.iterdir())

        data.append([(1, 1, "T")])
        plan = FaultPlan(rules=[
            FaultRule(site="snapshot.sidecar", kind="error", at=(1,)),
        ])
        with faults.use(plan):
            with pytest.raises(StorageError, match="could not write"):
                store.checkpoint(
                    {"data": dataset_state(data)}, data.version
                )
        assert plan.injected() == {"snapshot.sidecar:error": 1}
        # Neither the new document nor a published new sidecar exists;
        # the previous generation is byte-for-byte present.
        version = data.version
        assert not (tmp_path / f"snapshot-{version}.json").exists()
        assert not (tmp_path / f"snapshot-{version}.npy").exists()
        assert set(survivors) <= {p.name for p in tmp_path.iterdir()}

        recovered = DurableStore(tmp_path).recover(mmap="require")
        restored = restore_dataset(recovered.snapshot["data"])
        assert restored.version == recovered.snapshot_version
        assert len(restored.ids) == len(ROWS) - 1  # pre-fault generation
        if restored.base_store is not None:
            restored.base_store.close()


# ---------------------------------------------------------------------------
# the REPRO_MMAP switch
# ---------------------------------------------------------------------------


class TestMmapMode:
    def test_argument_resolution(self):
        assert resolve_mmap_mode(True) == "require"
        assert resolve_mmap_mode(False) == "off"
        assert resolve_mmap_mode("REQUIRE ") == "require"
        with pytest.raises(StorageError, match="invalid mmap mode"):
            resolve_mmap_mode("sometimes")

    def test_environment_default(self, monkeypatch):
        monkeypatch.delenv(MMAP_ENV, raising=False)
        assert resolve_mmap_mode() == "auto"
        monkeypatch.setenv(MMAP_ENV, "off")
        assert resolve_mmap_mode() == "off"
        monkeypatch.setenv(MMAP_ENV, "nope")
        with pytest.raises(StorageError, match="invalid mmap mode"):
            resolve_mmap_mode()

    @needs_numpy
    def test_require_fails_without_numpy(self, tmp_path, monkeypatch):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        import repro.storage.snapshot as snapshot_module

        monkeypatch.setattr(
            snapshot_module, "numpy_available", lambda: False
        )
        with pytest.raises(StorageError, match="NumPy is unavailable"):
            read_snapshot(path, mmap="require")

    def test_require_passes_inline_payloads(self, tmp_path):
        data = small_dynamic()
        path = write_snapshot(
            tmp_path / "snapshot-1.json", {"data": dataset_state(data)}
        )
        document = read_snapshot(path, mmap="require")
        restored = restore_dataset(document["data"])
        assert list(restored.canonical_rows) == list(data.canonical_rows)

    @needs_numpy
    def test_auto_falls_back_when_the_sidecar_cannot_map(
        self, tmp_path, monkeypatch
    ):
        data = small_dynamic()
        path = sidecar_snapshot(tmp_path, monkeypatch, data)

        import repro.storage.snapshot as snapshot_module

        def refuse(*args, **kwargs):
            raise StorageError("pretend the filesystem refuses mmap")

        monkeypatch.setattr(
            snapshot_module, "BorrowedColumnStore", refuse
        )
        with pytest.raises(StorageError, match="refuses mmap"):
            read_snapshot(path, mmap="require")
        from repro.core.colstore import JsonColumnStore

        restored = restore_dataset(read_snapshot(path, mmap="auto")["data"])
        # Fell back to the eager tier: owned rows, nothing borrowed.
        assert isinstance(restored.base_store, JsonColumnStore)
        assert list(restored.canonical_rows) == list(data.canonical_rows)


# ---------------------------------------------------------------------------
# the columnar view over the mapped sidecar file
# ---------------------------------------------------------------------------


@needs_numpy
class TestFileShippedValues:
    def borrowed_dataset(self, tmp_path, monkeypatch, points=600):
        from repro.datagen import SyntheticConfig, generate

        base = generate(
            SyntheticConfig(
                num_points=points, num_numeric=2, num_nominal=2,
                cardinality=4, distribution="anticorrelated", seed=23,
            )
        )
        data = DynamicDataset.from_dataset(base)
        path = sidecar_snapshot(tmp_path, monkeypatch, data)
        dyn = restore_dataset(read_snapshot(path, mmap=True)["data"])
        return base, dyn.base_dataset(), dyn.base_store, path

    def test_columnar_view_advertises_its_file(self, tmp_path, monkeypatch):
        base, borrowed, store, path = self.borrowed_dataset(
            tmp_path, monkeypatch
        )
        columns = borrowed.columns
        assert columns.matrix is store.matrix  # the mmap IS the matrix
        # The matrix is a memory map of the snapshot's ``.npy`` sidecar.
        assert os.path.samefile(
            columns.matrix.filename, path.with_suffix(".npy")
        )
        store.close()
