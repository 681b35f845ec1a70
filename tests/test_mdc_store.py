"""Differential tests for :class:`repro.mdc.mdc.ConditionStore`.

The store answers "which template-skyline members does this preference
disqualify?" from packed minimal disqualifying conditions.  Its array
body (vectorized backends) and its python body must both agree with a
plain :meth:`DisqualifyingCondition.satisfied_by` loop, the MDC filter
built on it must agree with bruteforce, and an IPO-tree built through
it must equal the ``engine="direct"`` tree node by node wherever a
node's preference refines the template (and answer every query alike).

Schemas cover a mixed one, a nominal-only one and a numeric-only one
(no nominal dimension at all); rows use only a prefix of each domain,
so preferences name values no row holds, and rows repeat.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.preferences import ImplicitPreference, Preference
from repro.core.skyline import skyline
from repro.engine import numpy_available
from repro.ipo.tree import IPOTree
from repro.mdc.filter import MDCFilter
from repro.mdc.mdc import (
    ConditionStore,
    DisqualifyingCondition,
    compute_mdcs,
    template_positions,
)

DOMAIN_A = ("a0", "a1", "a2", "a3", "a4")
DOMAIN_B = ("b0", "b1", "b2", "b3")
DOMAIN_C = ("c0", "c1", "c2")

#: Per schema: the schema, and per column the values rows may hold (a
#: nominal column holds only a prefix of its domain).
SCHEMAS = {
    "mixed": (
        Schema([
            numeric_min("x"),
            numeric_min("y"),
            nominal("A", DOMAIN_A),
            nominal("B", DOMAIN_B),
        ]),
        [range(4), range(4), DOMAIN_A[:3], DOMAIN_B[:3]],
    ),
    "nominal-only": (
        Schema([
            nominal("A", DOMAIN_A),
            nominal("B", DOMAIN_B),
            nominal("C", DOMAIN_C),
        ]),
        [DOMAIN_A[:4], DOMAIN_B[:2], DOMAIN_C],
    ),
    "numeric-only": (
        Schema([numeric_min("x"), numeric_min("y"), numeric_min("z")]),
        [range(4), range(4), range(3)],
    ),
}

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def chain(draw, domain, prefix=()):
    """``prefix`` followed by a duplicate-free draw from the rest."""
    rest = [v for v in domain if v not in prefix]
    tail = draw(st.permutations(rest))[: draw(st.integers(0, len(rest)))]
    return tuple(prefix) + tuple(tail)


@st.composite
def cases(draw):
    """(data, template, refining preferences) over one of SCHEMAS."""
    schema, values = SCHEMAS[draw(st.sampled_from(sorted(SCHEMAS)))]
    distinct = draw(
        st.lists(
            st.tuples(*(st.sampled_from(list(v)) for v in values)),
            min_size=1,
            max_size=25,
        )
    )
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=5))
    data = Dataset(schema, distinct + repeats)
    nominal_specs = [schema[d] for d in schema.nominal_indices]
    template = Preference({
        spec.name: ImplicitPreference(
            draw(chain(spec.domain))[: draw(st.integers(0, 1))]
        )
        for spec in nominal_specs
    })
    preferences = [
        Preference({
            spec.name: ImplicitPreference(
                draw(chain(spec.domain, template[spec.name].choices))
            )
            for spec in nominal_specs
        })
        for _ in range(draw(st.integers(1, 4)))
    ]
    return data, template, preferences


def template_skyline(data, template):
    return tuple(
        sorted(skyline(data, template, algorithm="bruteforce").ids)
    )


def reference_disqualified(mdcs, members, rows, positions):
    """The plain containment loop the store must reproduce."""
    return [
        p for p in members
        if any(c.satisfied_by({}, positions, rows[p]) for c in mdcs[p])
    ]


class TestStoreBodies:
    @SETTINGS
    @given(case=cases())
    def test_array_and_python_bodies_match_reference(self, case):
        data, template, preferences = case
        members = template_skyline(data, template)
        mdcs = compute_mdcs(data, members, backend="python")
        rows = data.canonical_rows
        stores = [
            ConditionStore(
                mdcs, members, rows, data.schema, vectorized=vectorized
            )
            for vectorized in ([False, True] if numpy_available() else [False])
        ]
        for pref in [Preference.empty()] + preferences:
            positions = template_positions(
                pref.merged_over(template), data.schema
            )
            expected = reference_disqualified(mdcs, members, rows, positions)
            for store in stores:
                assert store.disqualified(positions) == expected
                assert store.survivors(positions) == [
                    p for p in members if p not in expected
                ]

    @SETTINGS
    @given(case=cases(), backend=st.sampled_from(BACKENDS))
    def test_filter_matches_bruteforce(self, case, backend):
        data, template, preferences = case
        index = MDCFilter(data, template, backend=backend)
        for pref in preferences:
            expected = sorted(
                skyline(
                    data, pref, template=template, algorithm="bruteforce"
                ).ids
            )
            assert index.query(pref) == expected


def labelled_nodes(node, path=()):
    """Pre-order ``(labels on the path, node)`` pairs of a subtree."""
    if node.label is not None:
        path = path + (node.label,)
    yield path, node
    for child in node.children.values():
        yield from labelled_nodes(child, path)
    if node.phi_child is not None:
        yield from labelled_nodes(node.phi_child, path)


def refines_template(path, data, template):
    """Does a node's preference refine the template on every label?"""
    for dim, vid in path:
        spec = data.schema[dim]
        choices = template[spec.name].choices
        if choices and choices[0] != spec.domain[vid]:
            return False
    return True


class TestTreeThroughStore:
    @SETTINGS
    @given(case=cases())
    def test_array_tree_equals_reference_tree(self, case):
        """Every node, including those that contradict the template."""
        data, template, _ = case
        trees = [
            IPOTree.build(data, template, engine="mdc", backend=backend)
            for backend in BACKENDS
        ]
        reference = trees[0]
        for tree in trees[1:]:
            assert tree.skyline_ids == reference.skyline_ids
            nodes = list(zip(reference.root.walk(), tree.root.walk()))
            assert len(nodes) == reference.node_count() == tree.node_count()
            for a, b in nodes:
                assert a.label == b.label
                assert a.disqualified == b.disqualified

    @SETTINGS
    @given(case=cases(), backend=st.sampled_from(BACKENDS))
    def test_mdc_tree_equals_direct_tree(self, case, backend):
        """Node by node wherever the node's preference refines the
        template, and on every query answer.

        A node labelled ``v < *`` against a template chain starting at
        another value does not refine the template; its dominators may
        lie outside the template skyline ``S``.  The direct engine only
        looks inside ``S`` there, while the conditions (computed against
        all of ``SKY(R0)``) see them, so such nodes may differ - without
        changing any answer, which the query checks below pin.
        """
        data, template, preferences = case
        direct = IPOTree.build(data, template, engine="direct", backend=backend)
        built = IPOTree.build(data, template, engine="mdc", backend=backend)
        assert built.conditions is not None
        assert built.skyline_ids == direct.skyline_ids
        nodes = list(
            zip(labelled_nodes(direct.root), labelled_nodes(built.root))
        )
        assert len(nodes) == direct.node_count() == built.node_count()
        for (path, a), (other, b) in nodes:
            assert path == other
            if refines_template(path, data, template):
                assert a.disqualified == b.disqualified
        for pref in preferences:
            expected = sorted(
                skyline(
                    data, pref, template=template, algorithm="bruteforce"
                ).ids
            )
            assert built.query(pref) == direct.query(pref) == expected


def test_empty_condition_always_disqualifies():
    """A member dominated under the base order owns an empty condition."""
    schema = Schema([numeric_min("x"), nominal("A", DOMAIN_A)])
    data = Dataset(schema, [(0, "a0"), (1, "a0")])
    mdcs = compute_mdcs(data, [0, 1], candidates=[0, 1], backend="python")
    assert [len(c) for c in mdcs[1]] == [0]
    for vectorized in [False, True] if numpy_available() else [False]:
        store = ConditionStore(
            mdcs, [0, 1], data.canonical_rows, schema, vectorized=vectorized
        )
        for positions in ({}, {1: {0: 0}}, {1: {3: 0, 0: 1}}):
            assert store.disqualified(positions) == [1]


def test_answers_share_the_member_ids():
    """Answers hold the members' own id objects, not fresh ints: a cache
    retaining thousands of answers must not hold thousands of copies."""
    schema = Schema([numeric_min("x"), nominal("A", DOMAIN_A)])
    ids = [10**6 + i for i in range(3)]
    rows = {ids[0]: (0, 0), ids[1]: (1, 1), ids[2]: (2, 2)}
    mdcs = {
        ids[0]: [],
        ids[1]: [DisqualifyingCondition({1: 0})],
        ids[2]: [],
    }
    for vectorized in [False, True] if numpy_available() else [False]:
        store = ConditionStore(
            mdcs, ids, rows, schema, vectorized=vectorized
        )
        positions = {1: {0: 0}}
        assert store.disqualified(positions) == [ids[1]]
        assert store.survivors(positions) == [ids[0], ids[2]]
        assert store.disqualified(positions)[0] is store.ids[1]
        assert store.survivors(positions)[1] is store.ids[2]


@pytest.mark.skipif(not numpy_available(), reason="array body needs NumPy")
def test_backend_picks_the_body():
    schema, _ = SCHEMAS["mixed"]
    data = Dataset(schema, [(0, 1, "a0", "b0"), (1, 0, "a1", "b1")])
    assert ConditionStore.compute(data, [0, 1], backend="numpy")._np is not None
    assert ConditionStore.compute(data, [0, 1], backend="python")._np is None
