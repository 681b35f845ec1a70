"""The bitset backend: packed tiers, compiled kernel gate, edge shapes.

The differential oracle (``tests/test_oracle.py``) already audits the
bitset backend - both tiers - against brute force on every algorithm;
this file covers what the oracle's randomized cases cannot pin down
deterministically: word-boundary sizes (the packed bitmaps work in
64-point words, so off-by-ones hide at n = 63/64/65), degenerate
windows, single-dimension schemas, the ``REPRO_BITSET_KERNEL``
environment gate, the packing invariants the sweep's soundness rests
on, and the registry's availability reporting.
"""

from __future__ import annotations

import pytest

from repro.algorithms.bruteforce import bruteforce_skyline
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.datagen.generator import SyntheticConfig, generate
from repro.engine import (
    BackendStatus,
    backend_status,
    get_backend,
    make_bitset_backend,
    numpy_available,
)
from repro.engine._bitset_kernel import (
    KERNEL_ENV_VAR,
    load_kernel,
    reset_probe,
)
from repro.engine.bitset_backend import _bucket_template
from repro.exceptions import EngineError

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: Word-boundary sizes: below/at/above one and two uint64 words.
BOUNDARY_SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 200)


def _variants():
    """Every packed/kernel tier constructible in this environment."""
    variants = [("python-int", make_bitset_backend(packed="python"))]
    if numpy_available():
        variants.append(("numpy", make_bitset_backend(packed="numpy")))
        if get_backend("bitset").compiled:
            variants.append(
                ("numpy-nokern", make_bitset_backend(kernel="off"))
            )
    return variants


def _workload(num_points, seed=0, num_numeric=2, num_nominal=2):
    dataset = generate(
        SyntheticConfig(
            num_points=num_points,
            num_numeric=num_numeric,
            num_nominal=num_nominal,
            cardinality=4,
            distribution="anticorrelated",
            seed=seed,
        )
    )
    prefs = {
        name: ImplicitPreference(dataset.schema.spec(name).domain[:2])
        for name in dataset.schema.nominal_names
    }
    table = RankTable.compile(dataset.schema, Preference(prefs))
    return dataset, table


def _contexts(backend, dataset, table):
    store = dataset.columns if backend.vectorized else None
    return backend.prepare(dataset.canonical_rows, table, store=store)


class TestWordBoundarySizes:
    """The packed window is word-granular; sizes around 64 multiples
    are where a wrong head mask or an unguarded tail bit shows up."""

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_skyline_matches_reference_at_boundaries(self, n):
        dataset, table = _workload(n, seed=n)
        reference = get_backend("python")
        ref_ctx = reference.prepare(dataset.canonical_rows, table)
        expected = set(reference.skyline(ref_ctx, list(dataset.ids)))
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            got = set(backend.skyline(ctx, list(dataset.ids)))
            assert got == expected, (label, n)

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_membership_sweep_matches_reference_at_boundaries(self, n):
        dataset, table = _workload(n, seed=1000 + n)
        ids = list(dataset.ids)
        half = ids[: max(1, n // 2)]
        reference = get_backend("python")
        ref_ctx = reference.prepare(dataset.canonical_rows, table)
        expected = reference.dominated_any(ref_ctx, ids, half)
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            assert backend.dominated_any(ctx, ids, half) == expected, (
                label, n,
            )


class TestDegenerateWindows:
    def test_empty_targets_and_empty_against(self):
        dataset, table = _workload(40)
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            assert backend.dominated_any(ctx, [], [0, 1]) == [], label
            ids = list(dataset.ids)
            assert backend.dominated_any(ctx, ids, []) == (
                [False] * len(ids)
            ), label
            assert backend.skyline(ctx, []) == [], label

    def test_all_dominated_window(self):
        # One row strictly better everywhere: every other point dies,
        # whole words of the packed window are tombstones.
        schema = Schema([numeric_min("x"), numeric_min("y")])
        rows = [(0, 0)] + [(i + 1, i + 2) for i in range(130)]
        dataset = Dataset(schema, rows)
        table = RankTable.compile(schema, None)
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            assert backend.skyline(ctx, list(dataset.ids)) == [0], label
            dead = backend.dominated_any(
                ctx, list(range(1, len(rows))), [0]
            )
            assert dead == [True] * (len(rows) - 1), label

    def test_all_identical_rows_survive(self):
        # Identical rows never dominate each other (Definition 3's
        # strictness clause), even though every bucket AND flags them.
        schema = Schema([numeric_min("x"), nominal("A", ("a", "b"))])
        rows = [(1, "a")] * 70
        dataset = Dataset(schema, rows)
        table = RankTable.compile(schema, Preference({"A": "a < *"}))
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            got = backend.skyline(ctx, list(dataset.ids))
            assert sorted(got) == list(range(70)), label
            assert backend.dominated_any(
                ctx, list(dataset.ids), list(dataset.ids)
            ) == [False] * 70, label


class TestSingleDimension:
    @pytest.mark.parametrize("n", (1, 65, 130))
    def test_single_numeric_dimension(self, n):
        schema = Schema([numeric_min("x")])
        rows = [((i * 37) % n,) for i in range(n)]
        dataset = Dataset(schema, rows)
        table = RankTable.compile(schema, None)
        minimum = min(r[0] for r in rows)
        expected = {i for i, r in enumerate(rows) if r[0] == minimum}
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            got = set(backend.skyline(ctx, list(dataset.ids)))
            assert got == expected, (label, n)

    def test_single_nominal_dimension_unlisted_values_incomparable(self):
        schema = Schema([nominal("A", ("a", "b", "c", "d"))])
        rows = [("a",), ("b",), ("c",), ("d",)] * 20
        dataset = Dataset(schema, rows)
        table = RankTable.compile(schema, Preference({"A": "a < *"}))
        # 'a' beats every unlisted value, but duplicates of 'a' tie;
        # distinct unlisted values are mutually incomparable - the
        # reference backend owns the exact answer.
        reference = get_backend("python")
        ref_ctx = reference.prepare(dataset.canonical_rows, table)
        expected = set(reference.skyline(ref_ctx, list(dataset.ids)))
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            got = set(backend.skyline(ctx, list(dataset.ids)))
            assert got == expected, label


@needs_numpy
class TestPackingInvariants:
    """The lemmas the sweep's soundness rests on, checked on real data."""

    def test_buckets_monotone_in_ranks(self):
        import numpy as np

        dataset, table = _workload(500, seed=9)
        backend = make_bitset_backend(packed="numpy")
        ctx = _contexts(backend, dataset, table)
        for j in range(ctx.ranks_t.shape[0]):
            order = np.argsort(ctx.ranks_t[j], kind="stable")
            buckets = ctx.buckets_t[j, order]
            # rank_a <= rank_b implies bucket_a <= bucket_b - the
            # superset property of the bucket AND.
            assert (np.diff(buckets.astype(np.int64)) >= 0).all()
            # Equal ranks land in the same bucket (value equality on a
            # nominal dimension forces a rank tie, so this is what
            # makes the AND a dominator *superset*).
            ranks = ctx.ranks_t[j, order]
            same = ranks[1:] == ranks[:-1]
            assert (buckets[1:][same] == buckets[:-1][same]).all()
            if ctx.nominal[j]:
                # Short nominal preferences get exact levels: distinct
                # ranks never share a bucket.
                assert (buckets[1:][~same] != buckets[:-1][~same]).all()

    def test_long_nominal_preference_falls_back_to_quantile_cuts(self):
        import numpy as np

        from repro.engine.bitset_backend import NUM_BUCKETS

        domain = tuple(f"v{i}" for i in range(100))
        schema = Schema([numeric_min("x"), nominal("A", domain)])
        rows = [
            ((i * 7919) % 997, domain[(i * 31) % 100]) for i in range(3000)
        ]
        dataset = Dataset(schema, rows)
        # 80 listed values + the shared default rank: 81 distinct ranks,
        # too many for exact levels.
        table = RankTable.compile(
            schema,
            Preference({"A": ImplicitPreference(domain[:80][::-1])}),
        )
        reference = get_backend("python")
        expected = set(bruteforce_skyline(
            dataset.canonical_rows, dataset.ids, table, backend=reference
        ))
        for label, backend in _variants():
            ctx = _contexts(backend, dataset, table)
            if backend.vectorized:
                assert np.unique(ctx.ranks_t[1]).size > NUM_BUCKETS
                assert np.unique(ctx.buckets_t[1]).size <= NUM_BUCKETS
            got = set(backend.skyline(ctx, list(dataset.ids)))
            assert got == expected, label

    def test_threshold_bitmap_is_cumulative(self):
        import numpy as np

        dataset, table = _workload(200, seed=4)
        backend = make_bitset_backend(packed="numpy")
        ctx = _contexts(backend, dataset, table)
        from repro.engine.bitset_backend import _AcceptState

        state = _AcceptState(np, ctx.ranks_t.shape[0])
        ids = np.arange(len(dataset), dtype=np.int64)
        state.extend(
            np.ascontiguousarray(ctx.ranks_t[:, ids]),
            np.ascontiguousarray(ctx.values_t[:, ids]),
            np.ascontiguousarray(ctx.scores[ids]),
            np.ascontiguousarray(ctx.buckets_t[:, ids]),
        )
        # Level k's bitmap must contain level k-1's (threshold
        # semantics: bit t at level k iff bucket_j(t) <= k) ...
        for j in range(state.num_dims):
            for k in range(1, state.tb.shape[1]):
                below = state.tb[j, k - 1]
                assert ((below & state.tb[j, k]) == below).all()
            # ... and level k must hold exactly the accepts bucketed
            # at or below k.
            for t in range(state.count):
                k = state.buckets[j, t]
                word, bit = t >> 6, np.uint64(1 << (t & 63))
                assert state.tb[j, k, word] & bit
                if k > 0:
                    assert not state.tb[j, k - 1, word] & bit


@needs_numpy
class TestKernelGate:
    """The REPRO_BITSET_KERNEL environment contract."""

    def teardown_method(self):
        reset_probe()

    def test_off_disables_the_compiled_sweep(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "off")
        reset_probe()
        sweep, reason = load_kernel()
        assert sweep is None
        assert "off" in reason
        backend = make_bitset_backend()
        assert not backend.compiled
        assert "uint64" in backend.availability_detail()

    def test_invalid_mode_raises(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "fastest")
        with pytest.raises(EngineError, match="REPRO_BITSET_KERNEL"):
            load_kernel()

    def test_require_raises_when_unbuildable(self, monkeypatch, tmp_path):
        monkeypatch.setenv(KERNEL_ENV_VAR, "require")
        # An unwritable/poisoned cache directory plus a compiler PATH
        # without any cc makes the probe fail deterministically.
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("PATH", str(tmp_path))
        reset_probe()
        with pytest.raises(EngineError, match="require"):
            load_kernel()

    def test_require_succeeds_when_buildable(self, monkeypatch):
        if not get_backend("bitset").compiled:
            pytest.skip("no C toolchain on this host")
        monkeypatch.setenv(KERNEL_ENV_VAR, "require")
        reset_probe()
        sweep, reason = load_kernel()
        assert sweep is not None
        assert "compiled" in reason

    def test_kernel_and_fallback_agree(self):
        if not get_backend("bitset").compiled:
            pytest.skip("no C toolchain on this host")
        dataset, table = _workload(1500, seed=21, num_nominal=3)
        with_kernel = make_bitset_backend()
        without = make_bitset_backend(kernel="off")
        ctx_on = _contexts(with_kernel, dataset, table)
        ctx_off = _contexts(without, dataset, table)
        ids = list(dataset.ids)
        assert with_kernel.skyline(ctx_on, ids) == without.skyline(
            ctx_off, ids
        )
        assert with_kernel.dominated_any(
            ctx_on, ids, ids[:700]
        ) == without.dominated_any(ctx_off, ids, ids[:700])


class TestConstructionAndStatus:
    def test_invalid_tier_arguments_raise(self):
        with pytest.raises(EngineError, match="packed tier"):
            make_bitset_backend(packed="simd")
        with pytest.raises(EngineError, match="kernel setting"):
            make_bitset_backend(kernel="maybe")

    def test_forcing_numpy_tier_without_numpy_raises(self):
        if numpy_available():
            pytest.skip("NumPy installed; the python tier is forced "
                        "explicitly elsewhere")
        with pytest.raises(EngineError):
            make_bitset_backend(packed="numpy")

    def test_python_tier_forced_with_numpy_present(self):
        backend = make_bitset_backend(packed="python")
        assert backend.vectorized is False
        assert not backend.compiled
        assert "python-int" in backend.availability_detail()

    def test_backend_status_reports_bitset(self):
        status = backend_status("bitset")
        assert isinstance(status, BackendStatus)
        assert status.name == "bitset"
        assert status.available
        assert "tier" in status.detail or "lanes" in status.detail
        assert "bitset" in str(status)

    def test_backend_status_all_includes_bitset(self):
        names = [status.name for status in backend_status()]
        assert "bitset" in names
        assert names == sorted(names)

    def test_unknown_backend_error_lists_availability(self):
        with pytest.raises(EngineError, match="registered backends"):
            backend_status("bitst")
        with pytest.raises(EngineError, match="bitset"):
            get_backend("bitst")

    @needs_numpy
    def test_numeric_packing_shared_across_tables(self):
        import numpy as np

        dataset, table = _workload(300, seed=2)
        other = RankTable.compile(dataset.schema, None)
        backend = make_bitset_backend(packed="numpy")
        store = dataset.columns
        first = backend.prepare(dataset.canonical_rows, table, store=store)
        template = store.derived(_bucket_template)
        second = backend.prepare(dataset.canonical_rows, other, store=store)
        # One per-store packing serves both preferences: the numeric
        # bucket array is the very same object, not a recomputation.
        assert store.derived(_bucket_template) is template
        numeric = [
            j for j in range(store.num_dims) if j not in store.nominal_dims
        ]
        assert numeric
        assert (first.buckets_t[numeric] == template[numeric]).all()
        assert (first.buckets_t[numeric] == second.buckets_t[numeric]).all()
        assert not np.shares_memory(first.buckets_t, second.buckets_t)
        # A store built from loose rows is packed on its own and leaves
        # the dataset store's packing in place.
        loose = backend.prepare(dataset.canonical_rows, table)
        assert loose.store is not store
        assert store.derived(_bucket_template) is template


def bruteforce_ids(service, preference):
    """Brute-force skyline of the served rows, in the live id space."""
    snap = service.data_snapshot()
    table = RankTable.compile(snap.schema, preference, service.template)
    dyn = service._dynamic
    translate = dyn.snapshot_ids() if dyn is not None else range(len(snap))
    return tuple(sorted(
        translate[i] for i in bruteforce_skyline(
            snap.canonical_rows, snap.ids, table, backend="python"
        )
    ))


@needs_numpy
class TestStorePackAcrossVersions:
    """The per-store packing lives on the store object; every dataset
    version must be answered from its own packing."""

    def test_forced_route_matches_bruteforce_after_mutations(self):
        from repro.serve.service import SkylineService

        dataset, _table = _workload(300, seed=31)
        extra, _ = _workload(60, seed=32)
        service = SkylineService(
            dataset, cache_capacity=0, with_tree=False, with_mdc=False,
            with_adaptive=False,
        )
        prefs = [
            None,
            Preference({
                name: ImplicitPreference(
                    dataset.schema.spec(name).domain[::-1][:2]
                )
                for name in dataset.schema.nominal_names
            }),
        ]

        def check():
            for pref in prefs:
                got = service.query(pref, route="bitset", use_cache=False)
                assert tuple(got.ids) == bruteforce_ids(service, pref)
            assert _bucket_template in service._dynamic.columns._derived

        service.insert_rows([dataset.row(0)])  # builds the dynamic view
        check()
        # Rows that enter the skyline, then a delete of skyline members.
        service.insert_rows([extra.row(i) for i in range(len(extra))])
        check()
        members = service.query(None, route="bitset", use_cache=False).ids
        service.delete_rows(members[: len(members) // 2])
        check()
        service.compact()
        check()

    def test_adaptive_member_store_never_repacks_dataset_store(
        self, monkeypatch
    ):
        import repro.engine.bitset_backend as bitset_module
        from repro.serve.service import SkylineService

        built = []

        def counting(store, build=bitset_module._bucket_template):
            built.append(store)
            return build(store)

        monkeypatch.setattr(bitset_module, "_bucket_template", counting)
        dataset, _table = _workload(300, seed=33)
        extra, _ = _workload(60, seed=34)
        service = SkylineService(
            dataset, cache_capacity=0, with_tree=False, with_mdc=False,
            backend="bitset",
        )
        prefs = [
            Preference({
                name: ImplicitPreference(
                    dataset.schema.spec(name).domain[::-1][:k]
                )
                for name in dataset.schema.nominal_names
            })
            for k in (1, 2)
        ]

        def check():
            dyn = service._dynamic
            store = (dyn if dyn is not None else service.dataset).columns
            template = None
            for _ in range(2):
                for pref in prefs:
                    expected = bruteforce_ids(service, pref)
                    for route in ("bitset", "adaptive"):
                        got = service.query(pref, route=route, use_cache=False)
                        assert tuple(got.ids) == expected, route
                    if template is None:
                        template = store.derived(counting)
                    assert store.derived(counting) is template
            assert sum(1 for s in built if s is store) == 1
            # The adaptive queries packed their member store, not this one.
            assert any(s is not store for s in built)

        check()
        service.insert_rows([extra.row(i) for i in range(len(extra))])
        check()
        members = service.query(None, route="bitset", use_cache=False).ids
        service.delete_rows(members[: len(members) // 2])
        check()


class TestPlannerRoute:
    """The planner's large-n/low-d bitset rule (unit level; the end-to-
    end service routing lives in tests/test_serve_planner.py)."""

    def _signals(self, rows, dims, available=True):
        from repro.serve.planner import PlanSignals

        return PlanSignals(
            dataset_rows=rows,
            preference_order=1,
            tree_available=False,
            tree_covers_query=False,
            adaptive_available=False,
            affected_members=0,
            template_skyline_size=0,
            mdc_available=False,
            backend_vectorized=True,
            dimensions=dims,
            bitset_available=available,
        )

    def test_large_low_dimensional_scan_routes_to_bitset(self):
        from repro.serve.planner import Planner

        plan = Planner().plan(self._signals(200_000, 6))
        assert plan.route == "bitset"
        assert "bit-parallel" in plan.reason

    def test_small_or_wide_scans_keep_the_kernel(self):
        from repro.serve.planner import Planner

        planner = Planner()
        assert planner.plan(self._signals(5_000, 6)).route == "kernel"
        assert planner.plan(self._signals(200_000, 9)).route == "kernel"
        assert planner.plan(
            self._signals(200_000, 6, available=False)
        ).route == "kernel"

    def test_thresholds_are_validated(self):
        from repro.serve.planner import PlannerConfig

        with pytest.raises(ValueError):
            PlannerConfig(bitset_min_rows=-1)
        with pytest.raises(ValueError):
            PlannerConfig(bitset_max_dims=0)
