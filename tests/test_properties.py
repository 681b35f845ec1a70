"""Property-based tests (hypothesis) for the paper's theorems and the
equivalence of every evaluation path.

Datasets are drawn with small integer numeric values (to force ties and
duplicates) and small nominal domains (to force dense preference
interactions) - the regimes where ordering bugs hide.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive.adaptive_sfs import AdaptiveSFS
from repro.algorithms import ALGORITHMS, bruteforce_skyline
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.core.skyline import skyline
from repro.engine import get_backend, make_bitset_backend, numpy_available
from repro.ipo.tree import IPOTree

DOMAIN_A = ("a0", "a1", "a2", "a3")
DOMAIN_B = ("b0", "b1", "b2")

SCHEMA = Schema(
    [
        numeric_min("x"),
        numeric_min("y"),
        nominal("A", DOMAIN_A),
        nominal("B", DOMAIN_B),
    ]
)

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

rows = st.lists(
    st.tuples(
        st.integers(0, 4),
        st.integers(0, 4),
        st.sampled_from(DOMAIN_A),
        st.sampled_from(DOMAIN_B),
    ),
    min_size=1,
    max_size=40,
)


@st.composite
def chains(draw, domain, max_len=None):
    """A duplicate-free preference chain over ``domain``."""
    limit = max_len if max_len is not None else len(domain)
    length = draw(st.integers(0, limit))
    return tuple(draw(st.permutations(list(domain))))[:length]


@st.composite
def preferences(draw):
    return Preference(
        {
            "A": ImplicitPreference(draw(chains(DOMAIN_A))),
            "B": ImplicitPreference(draw(chains(DOMAIN_B))),
        }
    )


def truth(data: Dataset, pref) -> set:
    return set(skyline(data, pref, algorithm="bruteforce").ids)


class TestDominanceIsStrictPartialOrder:
    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_irreflexive_and_antisymmetric(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        canon = data.canonical_rows
        for p in canon[:10]:
            assert not table.dominates(p, p)
            for q in canon[:10]:
                if table.dominates(p, q):
                    assert not table.dominates(q, p)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_transitive(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        canon = data.canonical_rows[:8]
        for p in canon:
            for q in canon:
                if not table.dominates(p, q):
                    continue
                for r in canon:
                    if table.dominates(q, r):
                        assert table.dominates(p, r)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_rank_semantics_match_partial_order_model(self, rows, pref):
        """The fast rank-table dominance == the formal P(R~) expansion."""
        data = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        order_a = pref["A"].to_partial_order(DOMAIN_A)
        order_b = pref["B"].to_partial_order(DOMAIN_B)
        for i in list(data.ids)[:8]:
            for j in list(data.ids)[:8]:
                p_raw, q_raw = data.row(i), data.row(j)
                per_dim_ok = (
                    p_raw[0] <= q_raw[0]
                    and p_raw[1] <= q_raw[1]
                    and order_a.better_or_equal(p_raw[2], q_raw[2])
                    and order_b.better_or_equal(p_raw[3], q_raw[3])
                )
                strict = per_dim_ok and p_raw != q_raw
                assert table.dominates(
                    data.canonical(i), data.canonical(j)
                ) == strict


class TestScoreMonotonicity:
    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_dominance_implies_smaller_score(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        canon = data.canonical_rows
        for p in canon[:12]:
            for q in canon[:12]:
                if table.dominates(p, q):
                    assert table.score(p) < table.score(q)


class TestTheorem1Monotonicity:
    @SETTINGS
    @given(rows=rows, pref=preferences(), data_=st.data())
    def test_refinement_shrinks_skyline(self, rows, pref, data_):
        data = Dataset(SCHEMA, rows)
        # Extend each chain to build a refinement.
        refined = pref
        for name, domain in (("A", DOMAIN_A), ("B", DOMAIN_B)):
            chain = list(pref[name].choices)
            extra = [v for v in domain if v not in chain]
            take = data_.draw(st.integers(0, len(extra)))
            refined = refined.with_dimension(
                name, ImplicitPreference(tuple(chain + extra[:take]))
            )
        assert refined.refines(pref)
        assert truth(data, refined) <= truth(data, pref)


class TestTheorem2MergingProperty:
    @SETTINGS
    @given(rows=rows, data_=st.data())
    def test_merge_identity(self, rows, data_):
        data = Dataset(SCHEMA, rows)
        chain = data_.draw(chains(DOMAIN_A, max_len=4))
        if len(chain) < 2:
            return
        x = len(chain)
        prefix = Preference({"A": ImplicitPreference(chain[: x - 1])})
        single = Preference({"A": ImplicitPreference((chain[x - 1],))})
        full = Preference({"A": ImplicitPreference(chain)})
        sky_prefix = truth(data, prefix)
        sky_single = truth(data, single)
        dim = SCHEMA.index_of("A")
        listed = {data.value_id("A", v) for v in chain[: x - 1]}
        psky = {
            p for p in sky_prefix if data.canonical(p)[dim] in listed
        }
        assert truth(data, full) == (sky_prefix & sky_single) | psky


class TestAllPathsAgree:
    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_algorithms_equal_bruteforce(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        table = RankTable.compile(SCHEMA, pref)
        expected = set(
            bruteforce_skyline(data.canonical_rows, data.ids, table)
        )
        for name, algo in ALGORITHMS.items():
            assert (
                set(algo(data.canonical_rows, data.ids, table)) == expected
            ), name

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_ipo_tree_equals_bruteforce(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        tree = IPOTree.build(data)
        assert set(tree.query(pref)) == truth(data, pref)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_ipo_bitmap_equals_bruteforce(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        tree = IPOTree.build(data, payload="bitmap")
        assert set(tree.query(pref)) == truth(data, pref)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_adaptive_sfs_equals_bruteforce(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        index = AdaptiveSFS(data)
        assert set(index.query(pref)) == truth(data, pref)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_mdc_filter_equals_bruteforce(self, rows, pref):
        from repro.mdc.filter import MDCFilter

        data = Dataset(SCHEMA, rows)
        index = MDCFilter(data)
        assert set(index.query(pref)) == truth(data, pref)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(rows=rows, pref=preferences())
    def test_full_materialization_equals_bruteforce(self, rows, pref):
        from repro.materialize.full import FullMaterialization

        data = Dataset(SCHEMA, rows)
        index = FullMaterialization(data, max_order=4, max_entries=500_000)
        assert set(index.query(pref)) == truth(data, pref)

    @SETTINGS
    @given(rows=rows, pref=preferences())
    def test_adaptive_progressive_prefixes_are_sound(self, rows, pref):
        data = Dataset(SCHEMA, rows)
        index = AdaptiveSFS(data)
        expected = truth(data, pref)
        seen = set()
        for point_id in index.iter_query(pref):
            assert point_id in expected
            seen.add(point_id)
        assert seen == expected


updates = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.tuples(
                st.integers(0, 4),
                st.integers(0, 4),
                st.sampled_from(DOMAIN_A),
                st.sampled_from(DOMAIN_B),
            ),
        ),
        st.tuples(st.just("delete"), st.integers(0, 60)),
    ),
    max_size=12,
)


def _backend(name):
    if name in ("numpy", "bitset") and not numpy_available():
        pytest.skip("NumPy not installed")
    if name == "bitset-python":
        return make_bitset_backend(packed="python")
    return get_backend(name)


class TestIncrementalMaintenance:
    @SETTINGS
    @given(rows=rows, updates=updates)
    def test_updates_match_rebuild(self, rows, updates):
        data = Dataset(SCHEMA, rows)
        index = AdaptiveSFS(data)
        live = set(range(len(rows)))
        for action, payload in updates:
            if action == "insert":
                live.add(index.insert(payload))
            else:
                victims = sorted(live)
                if not victims:
                    continue
                victim = victims[payload % len(victims)]
                live.discard(victim)
                index.delete(victim)
        incremental = set(index.skyline_ids)
        index.rebuild()
        assert set(index.skyline_ids) == incremental

    @pytest.mark.parametrize(
        "backend_name", ("python", "numpy", "bitset", "bitset-python")
    )
    @SETTINGS
    @given(rows=rows, updates=updates, pref=preferences())
    def test_every_query_path_matches_bruteforce(
        self, backend_name, rows, updates, pref
    ):
        """After random churn, the batch query, the progressive scan and
        the reference scan all equal the oracle over the live rows."""
        index = AdaptiveSFS(Dataset(SCHEMA, rows), backend=_backend(backend_name))
        live = dict(enumerate(rows))
        for action, payload in updates:
            if action == "insert":
                live[index.insert(payload)] = payload
            elif live:
                victims = sorted(live)
                victim = victims[payload % len(victims)]
                del live[victim]
                index.delete(victim)
        ids = sorted(live)
        expected = []
        if ids:
            oracle = Dataset(SCHEMA, [live[i] for i in ids])
            expected = sorted(ids[k] for k in truth(oracle, pref))
        assert index.query(pref) == expected
        assert sorted(index.iter_query(pref)) == expected
        assert index.query_scan(pref) == expected
