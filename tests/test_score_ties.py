"""Exact score ties: a dominator must be visited before its victim.

The SFS score is a float sum, so it is only weakly monotone under
dominance: ``2**53 + 1.0 == 2**53`` lets a dominator and the point it
dominates share one score.  Every score presort therefore breaks ties
by rank vector (lexicographically, which dominance strictly
decreases).  These cases were built so that a tie broken by id puts
the dominated rows first:

* ``many-ties`` - 300 copies of ``(2**53, 1.0, "a")`` and one
  ``(2**53, 0.0, "a")`` that dominates them all; every rank sum rounds
  to ``2**53``.
* ``affected-tie`` - two template-skyline members that the query makes
  comparable; their re-scored sums round to the same ``2**54``, and
  the dominator has the larger id (the Adaptive SFS re-score order).

Each is checked on every algorithm x backend and on every route the
serving layer can take, before and after a mutation; a Hypothesis
property checks the visit order itself on tie-heavy data.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveSFS
from repro.algorithms import ALGORITHMS
from repro.algorithms.bruteforce import bruteforce_skyline
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine import get_backend, make_bitset_backend, numpy_available
from repro.serve.service import SkylineService

SCHEMA_AB = Schema(
    [numeric_min("X"), numeric_min("Y"), nominal("G", ("a", "b"))]
)
SCHEMA_ABC = Schema(
    [numeric_min("X"), numeric_min("Y"), nominal("G", ("a", "b", "c"))]
)

#: name -> (schema, rows, preference, expected skyline ids)
SCENARIOS = {
    "many-ties": (
        SCHEMA_AB,
        [(2**53, 1.0, "a")] * 300 + [(2**53, 0.0, "a")],
        Preference({"G": "a < b"}),
        [300],
    ),
    "affected-tie": (
        SCHEMA_ABC,
        [(2**54, 1.0, "c"), (2**54, 0.0, "b")],
        Preference({"G": "b < c"}),
        [1],
    ),
}

BACKENDS = ("python", "numpy", "bitset", "bitset-python")


def _backend(name):
    if name in ("numpy", "bitset") and not numpy_available():
        pytest.skip("NumPy not installed")
    if name == "bitset-python":
        return make_bitset_backend(packed="python")
    return get_backend(name)


def _scenario(name):
    schema, rows, preference, expected = SCENARIOS[name]
    return Dataset(schema, rows), preference, expected


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_scenarios_really_tie(scenario):
    dataset, preference, expected = _scenario(scenario)
    table = RankTable.compile(dataset.schema, preference)
    scores = {table.score(row) for row in dataset.canonical_rows}
    assert len(scores) == 1  # the whole point: one score for all rows
    reference = bruteforce_skyline(
        dataset.canonical_rows, dataset.ids, table, backend="python"
    )
    assert sorted(reference) == expected


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_algorithm_survives_score_ties(scenario, algorithm, backend_name):
    backend = _backend(backend_name)
    dataset, preference, expected = _scenario(scenario)
    table = RankTable.compile(dataset.schema, preference)
    store = dataset.columns if backend.vectorized else None
    got = ALGORITHMS[algorithm](
        dataset.canonical_rows, dataset.ids, table,
        backend=backend, store=store,
    )
    assert sorted(got) == expected


@pytest.mark.parametrize("backend_name", BACKENDS)
def test_adaptive_sfs_survives_affected_ties(backend_name):
    backend = _backend(backend_name)
    dataset, preference, expected = _scenario("affected-tie")
    index = AdaptiveSFS(dataset, backend=backend)
    assert index.query(preference) == expected
    assert index.query_scan(preference) == expected


@pytest.mark.parametrize("backend_name", ("python", "numpy", "bitset"))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_service_route_survives_score_ties(scenario, backend_name):
    backend = _backend(backend_name)
    dataset, preference, expected = _scenario(scenario)
    service = SkylineService(dataset, backend=backend)

    def check_every_route():
        routes = service.available_routes()
        for route in routes:
            got = service.query(preference, route=route, use_cache=False)
            assert list(got.ids) == expected, route
        return routes

    check_every_route()
    # A mutation builds the skyline maintainer (the incremental route);
    # the inserted row is dominated by every other, then deleted.
    report = service.insert_rows([(2**55, 9.0, "a")])
    service.delete_rows(report.point_ids)
    assert "incremental" in check_every_route()


#: Values whose sums collide after rounding (spacing 2 above 2**53).
tie_values = st.sampled_from(
    [0.0, 1.0, 2.0, 3.0, float(2**53), float(2**53 + 2), float(2**54)]
)
tie_rows = st.lists(
    st.tuples(tie_values, tie_values, st.sampled_from(("a", "b", "c", "d"))),
    min_size=1,
    max_size=60,
)
tie_prefs = st.lists(
    st.sampled_from(("a", "b", "c", "d")), unique=True, max_size=3
)


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=tie_rows, listed=tie_prefs)
def test_visit_order_never_puts_a_row_before_its_dominator(rows, listed):
    """``sort_by_score`` on every backend: for every ordered pair, the
    later row never dominates the earlier one."""
    schema = Schema(
        [numeric_min("X"), numeric_min("Y"),
         nominal("G", ("a", "b", "c", "d"))]
    )
    dataset = Dataset(schema, rows)
    table = RankTable.compile(
        schema, Preference({"G": ImplicitPreference(listed)})
    )
    canonical = dataset.canonical_rows
    names = ["python", "bitset-python"]
    if numpy_available():
        names += ["numpy", "bitset"]
    orders = []
    for name in names:
        backend = _backend(name)
        store = dataset.columns if backend.vectorized else None
        ctx = backend.prepare(canonical, table, store=store)
        order = backend.sort_by_score(ctx, list(dataset.ids))
        assert sorted(order) == list(dataset.ids), name
        for pos, earlier in enumerate(order):
            for later in order[pos + 1:]:
                assert not table.dominates(
                    canonical[later], canonical[earlier]
                ), (name, earlier, later)
        orders.append(order)
    # Full ties keep input order, so every backend agrees exactly.
    assert all(order == orders[0] for order in orders)
