"""Unit and integration tests for repro.updates and the mutable service.

The metamorphic (hypothesis) suite lives in
``tests/test_updates_properties.py``; this file pins the concrete
behaviours: DynamicDataset bookkeeping, IncrementalSkyline effects,
IPOTree.refresh (regrow) equivalence, versioned cache revision, and the
SkylineService mutation API against a brute-force oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.datagen import SyntheticConfig, generate
from repro.datagen.generator import frequent_value_template
from repro.datagen.queries import generate_preferences
from repro.engine import available_backends
from repro.exceptions import DatasetError
from repro.ipo.tree import IPOTree
from repro.mdc.mdc import ConditionStore
from repro.serve import PlannerConfig, SkylineService
from repro.updates import DynamicDataset, IncrementalSkyline

SCHEMA = Schema(
    [numeric_min("price"), numeric_min("dist"), nominal("g", ["T", "H", "M"])]
)


def small_dynamic() -> DynamicDataset:
    return DynamicDataset.from_dataset(
        Dataset(
            SCHEMA,
            [(10, 5, "T"), (8, 7, "H"), (12, 4, "M"), (9, 9, "T")],
        )
    )


class TestDynamicDataset:
    def test_append_assigns_fresh_ids_and_bumps_version(self):
        data = small_dynamic()
        assert data.version == 0 and len(data) == 4
        assert data.append([(7, 7, "M"), (6, 8, "T")]) == [4, 5]
        assert data.version == 1
        assert len(data) == 6
        assert data.row(4) == (7, 7, "M")

    def test_append_is_all_or_nothing(self):
        data = small_dynamic()
        with pytest.raises(DatasetError, match="row 5"):
            data.append([(1, 1, "T"), (1, 1, "NOPE")])
        assert len(data) == 4 and data.version == 0

    def test_append_validates_row_width(self):
        data = small_dynamic()
        with pytest.raises(DatasetError, match="has 2 values"):
            data.append([(1, 1)])

    def test_delete_tombstones_but_keeps_ids_stable(self):
        data = small_dynamic()
        data.delete([1])
        assert not data.is_live(1)
        assert data.ids == [0, 2, 3]
        assert len(data) == 3
        assert data.num_slots == 4
        assert data.deleted_fraction == 0.25
        # Remaining ids still address the same rows.
        assert data.row(2) == (12, 4, "M")

    def test_delete_rejects_dead_unknown_and_duplicate_ids(self):
        data = small_dynamic()
        data.delete([0])
        with pytest.raises(DatasetError):
            data.delete([0])  # already dead
        with pytest.raises(DatasetError):
            data.delete([99])
        with pytest.raises(DatasetError, match="duplicate"):
            data.delete([1, 1])
        # Failed batches left no tombstones behind.
        assert data.ids == [1, 2, 3]

    def test_compact_reassigns_ids_in_order(self):
        data = small_dynamic()
        data.delete([0, 2])
        remap = data.compact()
        assert remap == {1: 0, 3: 1}
        assert data.ids == [0, 1]
        assert data.row(0) == (8, 7, "H")
        assert data.deleted_fraction == 0.0

    def test_ids_track_liveness_across_every_mutation(self):
        data = small_dynamic()
        expected = lambda: [i for i, a in enumerate(data.alive_flags) if a]
        assert data.ids == expected()
        data.append([(1, 1, "T"), (2, 2, "H")])
        assert data.ids == expected() == [0, 1, 2, 3, 4, 5]
        data.delete([1, 4])
        assert data.ids == expected() == [0, 2, 3, 5]
        assert data.ids is data.ids  # cached within a version
        data.compact()
        assert data.ids == expected() == [0, 1, 2, 3]
        data.append([(3, 3, "M")])
        assert data.ids == expected() == [0, 1, 2, 3, 4]

    def test_compact_on_clean_data_is_identity(self):
        data = small_dynamic()
        version = data.version
        assert data.compact() == {0: 0, 1: 1, 2: 2, 3: 3}
        assert data.version == version  # no mutation happened

    def test_snapshot_positions_translate_via_snapshot_ids(self):
        data = small_dynamic()
        data.delete([1])
        data.append([(1, 1, "H")])
        snap = data.snapshot()
        ids = data.snapshot_ids()
        assert len(snap) == 4
        assert ids == (0, 2, 3, 4)
        for pos, point_id in enumerate(ids):
            assert snap.row(pos) == data.row(point_id)
        assert data.snapshot() is snap  # version-cached

    def test_snapshot_reuses_encodings(self):
        data = small_dynamic()
        snap = data.snapshot()
        assert snap.canonical(0) == data.canonical(0)


class TestIncrementalSkyline:
    def test_insert_requires_the_row_to_exist(self):
        data = small_dynamic()
        sky = IncrementalSkyline(data)
        with pytest.raises(DatasetError):
            sky.insert(99)

    def test_delete_requires_the_tombstone_first(self):
        data = small_dynamic()
        sky = IncrementalSkyline(data)
        with pytest.raises(DatasetError):
            sky.delete(0)

    def test_insert_effects_enter_and_evict(self):
        data = small_dynamic()
        sky = IncrementalSkyline(data, Preference({"g": "T < *"}))
        before = sky.ids
        # A point dominated by (10, 5, T): no membership change.
        pid = data.append([(11, 6, "T")])[0]
        effect = sky.insert(pid)
        assert not effect.changed and sky.ids == before
        # A point dominating (10, 5, T) and (9, 9, T): evicts both.
        pid = data.append([(8, 4, "T")])[0]
        effect = sky.insert(pid)
        assert effect.entered == (pid,)
        assert 0 in effect.evicted
        assert pid in sky and 0 not in sky

    def test_delete_of_non_member_is_a_noop(self):
        data = small_dynamic()
        sky = IncrementalSkyline(data)
        pid = data.append([(100, 100, "T")])[0]  # dominated by everything
        sky.insert(pid)
        before = sky.ids
        data.delete([pid])
        effect = sky.delete(pid)
        assert not effect.changed and sky.ids == before

    def test_delete_readmits_exclusive_dominance_region_only(self):
        data = DynamicDataset(
            SCHEMA,
            [
                (1, 1, "T"),   # 0: member, shadows 2 and 3
                (2, 0, "H"),   # 1: member
                (2, 2, "T"),   # 2: exclusively shadowed by 0
                (3, 1, "H"),   # 3: shadowed by 0 AND 1 -> stays out
            ],
        )
        sky = IncrementalSkyline(data)
        assert sky.ids == (0, 1)
        data.delete([0])
        effect = sky.delete(0)
        assert effect.evicted == (0,)
        assert effect.entered == (2,)
        assert sky.ids == (1, 2)

    @pytest.mark.parametrize("backend", available_backends())
    def test_random_churn_matches_rebuild(self, backend):
        base = generate(
            SyntheticConfig(
                num_points=300, num_numeric=2, num_nominal=2,
                cardinality=5, seed=17,
            )
        )
        template = frequent_value_template(base)
        data = DynamicDataset.from_dataset(base)
        sky = IncrementalSkyline(data, template, backend=backend)
        extra = generate(
            SyntheticConfig(
                num_points=120, num_numeric=2, num_nominal=2,
                cardinality=5, seed=18,
            )
        )
        rng = random.Random(4)
        live = list(data.ids)
        for step in range(120):
            if rng.random() < 0.5 and live:
                victim = live.pop(rng.randrange(len(live)))
                data.delete([victim])
                sky.delete(victim)
            else:
                pid = data.append([extra.row(rng.randrange(len(extra)))])[0]
                sky.insert(pid)
                live.append(pid)
            if step % 30 == 29:
                maintained = sky.ids
                assert maintained == sky.rebuild()


def churned(seed, *, tombstone_top_value=False):
    """A dataset, template and churned dynamic copy with both maintainers.

    ``tombstone_top_value`` deletes most rows holding the most frequent
    value of the first nominal attribute, so counting value frequencies
    over dead slots would rank the values differently.
    """
    base = generate(
        SyntheticConfig(
            num_points=250, num_numeric=2, num_nominal=2,
            cardinality=4, seed=seed,
        )
    )
    template = frequent_value_template(base)
    extra = generate(
        SyntheticConfig(
            num_points=80, num_numeric=2, num_nominal=2,
            cardinality=4, seed=seed + 1,
        )
    )
    data = DynamicDataset.from_dataset(base)
    sky = IncrementalSkyline(data, template)
    bases = IncrementalSkyline(data)  # empty preference = SKY(R0)
    rng = random.Random(seed)
    live = list(data.ids)
    if tombstone_top_value:
        name = base.schema[base.schema.nominal_indices[0]].name
        top = base.most_frequent(name, 1)[0]
        column = base.schema.index_of(name)
        victims = [i for i in live if base.row(i)[column] == top]
        victims = victims[: 3 * len(victims) // 4]
        live = [i for i in live if i not in set(victims)]
        data.delete(victims)
        for victim in victims:
            sky.delete(victim)
            bases.delete(victim)
    for _ in range(60):
        if rng.random() < 0.5 and live:
            victim = live.pop(rng.randrange(len(live)))
            data.delete([victim])
            sky.delete(victim)
            bases.delete(victim)
        else:
            pid = data.append([extra.row(rng.randrange(len(extra)))])[0]
            sky.insert(pid)
            bases.insert(pid)
            live.append(pid)
    return base, template, data, sky, bases


def assert_same_nodes(tree, fresh, fresh_ids):
    """Node-by-node equality, ``fresh``'s ids mapped through ``fresh_ids``."""
    assert tree.candidates == fresh.candidates
    assert tree.skyline_ids == tuple(fresh_ids[i] for i in fresh.skyline_ids)
    pairs = list(zip(tree.root.walk(), fresh.root.walk()))
    assert len(pairs) == tree.node_count() == fresh.node_count()
    for mine, theirs in pairs:
        assert mine.label == theirs.label
        assert mine.disqualified == {fresh_ids[i] for i in theirs.disqualified}


class TestTreeRefresh:
    @pytest.mark.parametrize("payload", ["set", "bitmap"])
    def test_refresh_matches_fresh_build(self, payload):
        base = generate(
            SyntheticConfig(
                num_points=250, num_numeric=2, num_nominal=2,
                cardinality=4, seed=5,
            )
        )
        template = frequent_value_template(base)
        extra = generate(
            SyntheticConfig(
                num_points=80, num_numeric=2, num_nominal=2,
                cardinality=4, seed=6,
            )
        )
        rng = random.Random(2)
        data = DynamicDataset.from_dataset(base)
        sky = IncrementalSkyline(data, template)
        tree = IPOTree.build(base, template, payload=payload)
        live = list(data.ids)
        for batch in range(3):
            for _ in range(20):
                if rng.random() < 0.5 and live:
                    victim = live.pop(rng.randrange(len(live)))
                    data.delete([victim])
                    sky.delete(victim)
                else:
                    pid = data.append(
                        [extra.row(rng.randrange(len(extra)))]
                    )[0]
                    sky.insert(pid)
                    live.append(pid)
            tree.refresh(data, ConditionStore.compute(data, sky.ids))
            assert tree.stats.skyline_size == len(sky.ids)
            snap, snap_ids = data.snapshot(), data.snapshot_ids()
            fresh = IPOTree.build(snap, template, payload=payload)
            assert tree.skyline_ids == tuple(
                snap_ids[i] for i in fresh.skyline_ids
            )
            for pref in generate_preferences(
                base, order=3, count=5, template=template, seed=batch
            ):
                assert tree.query(pref) == sorted(
                    snap_ids[i] for i in fresh.query(pref)
                )

    def test_refresh_with_no_change_touches_nothing(self):
        base = generate(
            SyntheticConfig(
                num_points=100, num_numeric=2, num_nominal=2,
                cardinality=4, seed=9,
            )
        )
        template = frequent_value_template(base)
        tree = IPOTree.build(base, template)
        before = tree.skyline_ids
        nodes = [(node.label, node.disqualified) for node in tree.root.walk()]
        tree.refresh(base, tree.conditions)
        assert tree.skyline_ids == before
        assert [
            (node.label, node.disqualified) for node in tree.root.walk()
        ] == nodes


class TestRegrow:
    @pytest.mark.parametrize("k", [None, 2])
    def test_regrow_equals_a_build_over_the_live_rows(self, k):
        base, template, data, sky, bases = churned(51)
        tree = IPOTree.build(base, template, values_per_attribute=k)
        tree.refresh(
            data, ConditionStore.compute(data, sky.ids, candidates=bases.ids)
        )
        snap, snap_ids = data.snapshot(), data.snapshot_ids()
        schema = snap.schema
        values = {
            schema[dim].name: [schema[dim].domain[v] for v in vids]
            for dim, vids in zip(tree.nominal_dims, tree.candidates)
        }
        fresh = IPOTree.build(snap, template, values_per_attribute=values)
        assert_same_nodes(tree, fresh, snap_ids)

    @pytest.mark.parametrize("k", [None, 2])
    def test_build_over_tombstones_equals_the_compacted_copy(self, k):
        base, template, data, sky, bases = churned(
            53, tombstone_top_value=True
        )
        assert data.deleted_fraction > 0
        over_dynamic = IPOTree.build(data, template, values_per_attribute=k)
        compacted, ids = data.snapshot(), data.snapshot_ids()
        over_copy = IPOTree.build(
            compacted, template, values_per_attribute=k
        )
        assert_same_nodes(over_dynamic, over_copy, ids)
        shared = IPOTree.build(
            data, template, values_per_attribute=k,
            conditions=ConditionStore.compute(
                data, sky.ids, candidates=bases.ids
            ),
        )
        assert_same_nodes(shared, over_copy, ids)


class TestServiceUpdates:
    def make_service(self, **kwargs):
        base = generate(
            SyntheticConfig(
                num_points=220, num_numeric=2, num_nominal=2,
                cardinality=4, seed=21,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(
            base, template, cache_capacity=32, **kwargs
        )
        prefs = generate_preferences(
            base, order=2, count=6, template=template, seed=1
        )
        return base, template, service, prefs

    def oracle(self, service, template, pref):
        snap = service.data_snapshot()
        translate = (
            service._dynamic.snapshot_ids()
            if service._dynamic is not None
            else tuple(range(len(snap)))
        )
        return tuple(
            sorted(
                translate[i]
                for i in skyline(snap, pref, template=template).ids
            )
        )

    def test_mutations_keep_every_query_exact(self):
        base, template, service, prefs = self.make_service()
        extra = generate(
            SyntheticConfig(
                num_points=100, num_numeric=2, num_nominal=2,
                cardinality=4, seed=22,
            )
        )
        rng = random.Random(7)
        live = list(range(len(base)))
        for round_no in range(5):
            for pref in prefs:
                service.query(pref)
            if round_no % 2 == 0:
                report = service.insert_rows(
                    [extra.row(rng.randrange(len(extra))) for _ in range(4)]
                )
                live.extend(report.point_ids)
                assert report.kind == "insert"
            else:
                victims = rng.sample(live, 4)
                report = service.delete_rows(victims)
                for v in victims:
                    live.remove(v)
                assert report.kind == "delete"
            assert report.version == service.version > 0
            for pref in prefs + [None]:
                result = service.query(pref)
                assert result.ids == self.oracle(service, template, pref), (
                    round_no, result.route
                )

    @staticmethod
    def extreme_row(schema, numeric_value):
        """A row with every numeric dimension at ``numeric_value``."""
        return tuple(
            numeric_value if spec.domain is None else spec.domain[0]
            for spec in schema
        )

    def test_insert_patches_cache_instead_of_dropping(self):
        base, template, service, prefs = self.make_service()
        for pref in prefs:
            service.query(pref)
        # A row worse than everything on every dimension cannot change
        # any skyline: every entry must be retained untouched.
        report = service.insert_rows([self.extreme_row(base.schema, 10**9)])
        assert report.cache_invalidated == 0
        assert report.cache_patched == 0
        assert report.cache_retained > 0
        # A row better than everything enters every cached skyline:
        # entries are patched in place, never dropped.
        report = service.insert_rows([self.extreme_row(base.schema, -10**9)])
        assert report.cache_invalidated == 0
        assert report.cache_patched > 0
        pid = report.point_ids[0]
        for pref in prefs:
            result = service.query(pref)
            assert pid in result.ids
            assert result.route == "cache"  # served from the patched entry

    def test_delete_drops_only_entries_containing_the_victim(self):
        base, template, service, prefs = self.make_service()
        # Dedup by canonical key: distinct preferences may alias to one
        # cache entry, and the accounting is per entry.
        entries = {r.key: r for r in (service.query(p) for p in prefs)}
        results = list(entries.values())
        member = results[0].ids[0]
        in_count = sum(1 for r in results if member in r.ids)
        out_count = len(results) - in_count
        report = service.delete_rows([member])
        assert report.cache_invalidated == in_count
        assert report.cache_retained == out_count
        assert report.cache_patched == 0

    def test_churn_heavy_workload_routes_adaptive(self):
        base, template, service, prefs = self.make_service(
            planner_config=PlannerConfig(incremental_update_ratio=0.05),
        )
        service.query(prefs[0])
        service.delete_rows([0, 1, 2, 3, 4])
        result = service.query(prefs[1], use_cache=False)
        assert result.route == "adaptive"
        assert "churn-heavy" in result.reason
        assert result.ids == self.oracle(service, template, prefs[1])

    @staticmethod
    def spy_scans(monkeypatch):
        """Record every ``sfs_skyline`` call as ``(preference order, row
        count)`` and every ``compute_mdcs`` call's ``candidates``."""
        import sys

        import repro.mdc.mdc as mdc_module
        from repro.algorithms.sfs import sfs_skyline

        scans, given = [], []

        def scan(rows, ids, table, **kwargs):
            ids = list(ids)
            scans.append((table.preference.order, len(ids)))
            return sfs_skyline(rows, ids, table, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and (
                getattr(module, "sfs_skyline", None) is sfs_skyline
            ):
                monkeypatch.setattr(module, "sfs_skyline", scan)
        real = mdc_module.compute_mdcs

        def conditions(dataset, points, *, candidates=None, **kwargs):
            given.append(candidates)
            return real(dataset, points, candidates=candidates, **kwargs)

        monkeypatch.setattr(mdc_module, "compute_mdcs", conditions)
        return scans, given

    def test_one_template_skyline_maintainer(self, monkeypatch):
        """Construction computes SKY(R0) group by group and every
        condition store against it; mutations reach Adaptive SFS only
        through the maintainer's effects and run no full scan."""
        from repro.adaptive.adaptive_sfs import AdaptiveSFS

        scans, candidates = self.spy_scans(monkeypatch)
        base, template, service, prefs = self.make_service(with_tree=True)
        # The template maintainer's one scan is the only all-row scan.
        assert template.order > 0
        assert scans == [(template.order, len(base))]
        assert candidates and all(c is not None for c in candidates)

        def refuse(*_args, **_kwargs):
            raise AssertionError("the service maintains SKY(R~) once")

        monkeypatch.setattr(AdaptiveSFS, "insert", refuse)
        monkeypatch.setattr(AdaptiveSFS, "delete", refuse)
        del scans[:], candidates[:]
        member = service.adaptive.skyline_ids[0]
        service.delete_rows([member])
        service.insert_rows([base.row(member)])
        assert all(rows < len(base) - 1 for _order, rows in scans)
        assert all(c is not None for c in candidates)
        for pref in prefs:
            got = service.query(pref, use_cache=False, route="adaptive")
            assert got.ids == self.oracle(service, template, pref)

    def test_compact_remaps_and_stays_exact(self):
        base, template, service, prefs = self.make_service()
        service.delete_rows(list(range(10)))
        before = {p: service.query(p, use_cache=False).ids for p in prefs}
        remap = service.compact()
        assert set(remap) >= set(before[prefs[0]])
        for pref in prefs:
            got = service.query(pref, use_cache=False).ids
            assert got == tuple(sorted(remap[i] for i in before[pref]))
            assert got == self.oracle(service, template, pref)

    def test_refresh_structures_revives_stale_routes(self):
        base, template, service, prefs = self.make_service(
            planner_config=PlannerConfig(incremental_update_ratio=0.0),
        )
        # ratio gate at 0.0: any mutation leaves the tree stale, and
        # deleting a template-skyline member stales the MDC filter.
        member = service.query(None, use_cache=False).ids[0]
        service.delete_rows([member])
        assert service._indexes_stale
        service.refresh_structures()
        assert not service._indexes_stale
        for route in ("ipo", "mdc", "adaptive"):
            got = service.query(prefs[0], route=route)
            assert got.ids == self.oracle(service, template, prefs[0]), route

    def test_static_service_unchanged(self):
        base, _template, service, prefs = self.make_service()
        result = service.query(prefs[0])
        assert result.version == 0
        assert service.version == 0
        assert service.data_snapshot() is base
        assert service.compact() == {}
        assert service.version == 0
        # With every index off nothing is maintained before a write.
        bare_base, _template, bare, _prefs = self.make_service(
            with_tree=False, with_mdc=False, with_adaptive=False
        )
        assert bare._dynamic is None and bare._maintainer is None
        assert bare.compact() == {} and bare.data_snapshot() is bare_base
        bare.insert_rows([base.row(0)])
        assert bare._maintainer is not None and bare.version == 1


class TestReviewRegressions:
    """Pins for review findings: ipo_k on compact, gate window, columns."""

    def test_compact_preserves_ipo_k_truncation(self):
        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=6, seed=33,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(
            base, template, ipo_k=2, with_tree=True, cache_capacity=8
        )
        before = [len(values) for values in service.tree.candidates]
        assert all(n <= 3 for n in before)  # k=2 plus template values
        service.delete_rows(list(range(5)))
        service.compact()
        after = [len(values) for values in service.tree.candidates]
        assert after == before  # rebuild kept the Tree-k truncation

    def test_refresh_structures_resets_the_churn_gate(self):
        base = generate(
            SyntheticConfig(
                num_points=200, num_numeric=2, num_nominal=2,
                cardinality=4, seed=34,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(base, template, cache_capacity=8)
        pref = generate_preferences(
            base, order=2, count=1, template=template, seed=2
        )[0]
        service.query(pref)
        service.delete_rows(list(range(10)))  # ratio far above the gate
        result = service.query(pref, use_cache=False)
        assert result.route == "adaptive"
        assert "churn-heavy" in result.reason
        service.refresh_structures()
        result = service.query(pref, use_cache=False)
        assert "churn-heavy" not in result.reason  # gate window was reset

    def test_gate_window_decays_lifetime_history(self):
        base = generate(
            SyntheticConfig(
                num_points=100, num_numeric=2, num_nominal=1,
                cardinality=3, seed=35,
            )
        )
        service = SkylineService(base, cache_capacity=0, with_tree=False)
        # Simulate a long query-only history beyond the window...
        with service._lock:
            service._gate_queries = 10 * service.GATE_WINDOW
        with service._lock:
            service._decay_gate_locked()
        # ... a churn storm must cross the gate within O(window) updates,
        # not O(history) ones.
        service.delete_rows(list(range(30)))
        for _ in range(3):
            service.insert_rows([base.row(0)])
        assert service._gate_queries <= service.GATE_WINDOW
        assert service._update_ratio() > 0.0

    def test_dynamic_columns_grow_incrementally_and_stay_exact(self):
        pytest.importorskip("numpy")
        from repro.engine.columnar import ColumnarStore

        base = generate(
            SyntheticConfig(
                num_points=60, num_numeric=2, num_nominal=2,
                cardinality=4, seed=36,
            )
        )
        data = DynamicDataset.from_dataset(base)
        for step in range(4):
            data.append([base.row(step)])
            data.delete([step])
            got = data.columns
            want = ColumnarStore.from_rows(
                data.canonical_rows,
                data.schema.nominal_indices,
                num_dims=len(data.schema),
            )
            assert (got.matrix == want.matrix).all()
            assert data.columns is got  # version-cached view
        data.compact()
        got = data.columns  # compaction dropped the builder: rebuilt
        want = ColumnarStore.from_rows(
            data.canonical_rows,
            data.schema.nominal_indices,
            num_dims=len(data.schema),
        )
        assert (got.matrix == want.matrix).all()
        assert len(got) == len(data)

    def test_columns_exact_when_appends_regrow_past_compaction(self):
        # Appends after a compaction bring the slot count back above
        # the pre-compaction size before the next columns read: the
        # view must show the compacted rows, not the old ones.
        pytest.importorskip("numpy")
        base = generate(
            SyntheticConfig(
                num_points=100, num_numeric=2, num_nominal=2,
                cardinality=4, seed=37,
            )
        )
        data = DynamicDataset.from_dataset(base)
        data.append([base.row(0)])
        before = data.columns
        old_rows = before.matrix.copy()
        data.delete(range(20))
        data.compact()
        data.append([base.row(i) for i in range(34)])
        got = data.columns
        assert len(got) == 115
        assert got.matrix.tolist() == [
            list(row) for row in data.canonical_rows
        ]
        assert (before.matrix == old_rows).all()  # old view intact

    def test_forced_scans_exact_when_appends_regrow_past_compaction(self):
        pytest.importorskip("numpy")
        base = generate(
            SyntheticConfig(
                num_points=100, num_numeric=2, num_nominal=2,
                cardinality=4, seed=37,
            )
        )
        service = SkylineService(
            base, cache_capacity=0, with_tree=False, with_adaptive=False,
            with_mdc=False,
        )
        pref = generate_preferences(base, 2, 1, seed=5)[0]
        service.insert_rows([base.row(0)])
        service.query(pref, route="kernel", use_cache=False)
        service.delete_rows(list(range(20)))
        service.compact()
        service.insert_rows([base.row(i) for i in range(34)])
        oracle = TestServiceUpdates().oracle(service, None, pref)
        for route in ("kernel", "bitset"):
            got = service.query(pref, route=route, use_cache=False)
            assert got.ids == oracle, route

    def test_maintainer_fails_fast_after_external_compaction(self):
        data = small_dynamic()
        sky = IncrementalSkyline(data)
        data.delete([0])
        sky.delete(0)
        data.compact()
        pid = data.append([(1, 1, "T")])[0]
        with pytest.raises(DatasetError, match="compacted"):
            sky.insert(pid)
        # rebuild() re-attaches: maintained ids equal a fresh recompute.
        sky.rebuild()
        assert sky.ids == sky.rebuild()
        data.delete([pid])
        assert sky.delete(pid).changed  # absorbs updates again

    def test_forced_stale_route_answers_are_not_cached(self):
        base = generate(
            SyntheticConfig(
                num_points=200, num_numeric=2, num_nominal=2,
                cardinality=4, seed=37,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(
            base, template, cache_capacity=16,
            planner_config=PlannerConfig(incremental_update_ratio=0.0),
        )
        pref = generate_preferences(
            base, order=2, count=1, template=template, seed=3
        )[0]
        fresh = service.query(pref, use_cache=False).ids
        # Make the tree stale (gate at 0.0), with a mutation that
        # changes this preference's answer.
        member = fresh[0]
        service.delete_rows([member])
        assert service._indexes_stale
        stale = service.query(pref, route="ipo")  # stale by design
        assert member in stale.ids  # the stale structure still has it
        # The poisoned answer must NOT have been stored: a planned
        # query recomputes and excludes the deleted member.
        planned = service.query(pref)
        assert member not in planned.ids
        assert planned.route != "cache"

    def test_compaction_rebuild_leaves_old_column_views_intact(self):
        pytest.importorskip("numpy")
        data = small_dynamic()
        before = data.columns
        frozen = before.matrix.copy()
        data.delete([0])
        data.compact()
        after = data.columns  # rebuilt into fresh arrays
        assert (before.matrix == frozen).all()  # old view untouched
        assert len(after) == 3
        assert (after.matrix[0] == before.matrix[1]).all()

    def test_empty_mutation_batches_keep_versions_in_lockstep(self):
        base = generate(
            SyntheticConfig(
                num_points=80, num_numeric=2, num_nominal=1,
                cardinality=3, seed=38,
            )
        )
        service = SkylineService(base, cache_capacity=8)
        report = service.insert_rows([])
        assert report.version == 0 and len(report) == 0
        assert service.cache.stats().version == 0
        service.insert_rows([base.row(0)])
        report = service.delete_rows([])
        assert report.version == 1
        assert service.cache.stats().version == service.version == 1

    def test_tree_refresh_accepts_maintained_base_skyline(self):
        base = generate(
            SyntheticConfig(
                num_points=200, num_numeric=2, num_nominal=2,
                cardinality=4, seed=39,
            )
        )
        template = frequent_value_template(base)
        data = DynamicDataset.from_dataset(base)
        sky = IncrementalSkyline(data, template)
        bases = IncrementalSkyline(data)  # empty preference = SKY(R0)
        tree = IPOTree.build(base, template)
        pid = data.append([base.row(0)])[0]
        sky.insert(pid)
        bases.insert(pid)
        tree.refresh(
            data, ConditionStore.compute(data, sky.ids, candidates=bases.ids)
        )
        snap, snap_ids = data.snapshot(), data.snapshot_ids()
        fresh = IPOTree.build(snap, template)
        for pref in generate_preferences(
            base, order=2, count=4, template=template, seed=4
        ):
            assert tree.query(pref) == sorted(
                snap_ids[i] for i in fresh.query(pref)
            )

    def test_compact_without_tombstones_keeps_cache_and_versions(self):
        base = generate(
            SyntheticConfig(
                num_points=80, num_numeric=2, num_nominal=1,
                cardinality=3, seed=40,
            )
        )
        service = SkylineService(base, cache_capacity=8)
        service.insert_rows([base.row(0)])  # mutable mode, no tombstones
        pref = generate_preferences(base, order=1, count=1, seed=5)[0]
        service.query(pref)
        version = service.version
        remap = service.compact()  # identity: nothing was deleted
        assert remap[0] == 0 and len(remap) == len(base) + 1
        assert service.version == version  # no bump
        assert service.cache.stats().version == version  # still lockstep
        assert service.query(pref).route == "cache"  # cache survived

    def test_noop_updates_skip_the_tree_refresh(self):
        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=4, seed=41,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(base, template, cache_capacity=8)
        root = service.tree.root
        worst = TestServiceUpdates.extreme_row(base.schema, 10**9)
        report = service.insert_rows([worst])
        # Dominated on every dimension: no skyline flip anywhere, so
        # the tree was neither regrown nor marked stale.
        assert not report.skyline_entered and not report.skyline_evicted
        assert service.tree.root is root
        assert not service._indexes_stale
        pref = generate_preferences(
            base, order=2, count=1, template=template, seed=6
        )[0]
        result = service.query(pref, use_cache=False)
        oracle = TestServiceUpdates().oracle(service, template, pref)
        assert result.ids == oracle

    def test_concurrent_columns_builds_stay_exact(self):
        pytest.importorskip("numpy")
        from concurrent.futures import ThreadPoolExecutor

        from repro.engine.columnar import ColumnarStore

        base = generate(
            SyntheticConfig(
                num_points=120, num_numeric=2, num_nominal=2,
                cardinality=4, seed=42,
            )
        )
        data = DynamicDataset.from_dataset(base)
        with ThreadPoolExecutor(max_workers=4) as pool:
            for step in range(10):
                data.append([base.row(step)])
                stores = list(pool.map(lambda _: data.columns, range(4)))
                want = ColumnarStore.from_rows(
                    data.canonical_rows,
                    data.schema.nominal_indices,
                    num_dims=len(data.schema),
                )
                for store in stores:
                    assert (store.matrix == want.matrix).all()

    def test_first_update_before_any_query_refreshes_eagerly(self):
        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=4, seed=43,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(base, template, cache_capacity=8)
        member = skyline(base, None, template=template).ids[0]
        root = service.tree.root
        # No query has been served: the gate must not trip, the tree
        # must be regrown eagerly, and ipo stays routable.
        service.delete_rows([member])
        assert service.tree.root is not root
        assert member not in service.tree.skyline_ids
        assert not service._indexes_stale

    def test_stale_tree_recovers_on_a_later_noop_batch(self):
        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=4, seed=44,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(base, template, cache_capacity=8)
        service.query(None)
        # Storm trips the gate and leaves the tree stale...
        for _ in range(2):
            service.delete_rows(
                [service.query(None, use_cache=False).ids[0]]
            )
        assert service._indexes_stale
        root = service.tree.root
        # ... then a lull: enough queries drop the ratio below the
        # gate, and the next batch - even a no-op one - catches the
        # tree up instead of skipping it.
        for _ in range(40):
            service.query(None, use_cache=False)
        service.insert_rows(
            [TestServiceUpdates.extreme_row(base.schema, 10**9)]
        )
        assert service.tree.root is not root
        assert not service._indexes_stale

    def test_compact_without_tombstones_still_realigns_structures(self):
        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=4, seed=45,
            )
        )
        template = frequent_value_template(base)
        service = SkylineService(
            base, template, cache_capacity=8,
            planner_config=PlannerConfig(incremental_update_ratio=0.0),
        )
        member = service.query(None, use_cache=False).ids[0]
        service.delete_rows([member])
        service.insert_rows([base.row(member)])  # undo: ids all live? no -
        # the delete left a tombstone, so force an append-only staleness:
        service2 = SkylineService(
            base, template, cache_capacity=8,
            planner_config=PlannerConfig(incremental_update_ratio=0.0),
        )
        service2.query(None)
        best = TestServiceUpdates.extreme_row(base.schema, -10**9)
        service2.insert_rows([best])  # gate 0.0: tree goes stale
        assert service2._indexes_stale
        assert service2._dynamic.deleted_fraction == 0.0
        service2.compact()  # identity path must still re-align
        assert not service2._indexes_stale
