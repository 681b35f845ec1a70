"""Metamorphic (hypothesis) properties of incremental skyline maintenance.

Three relations that must hold for *any* data and *any* implicit
preference, each relating a maintained state to an independently
computed one:

1. **insert-then-delete is identity** - absorbing a row and then
   deleting it returns the maintained skyline to exactly its previous
   membership;
2. **N single inserts equal one rebuild** - feeding rows one by one
   through the maintainer lands on the same skyline as computing it
   from scratch over the extended dataset;
3. **deleting a non-skyline point never changes the skyline** - a
   dominated point disqualifies nothing, so removing it is invisible.

A differential property then drives random churn, inserts and batched
deletes, through the base-order maintainer, which works per nominal
group, and checks it against a bruteforce skyline after every insert
and delete batch.

Small integer numeric values and small nominal domains force the tie
and duplicate regimes where maintenance bugs hide (shared scores,
incomparable unlisted values, exclusive-vs-shared dominance regions).
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import bruteforce_skyline
from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine import available_backends
from repro.updates import DynamicDataset, IncrementalSkyline, incremental

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

row_strategy = st.tuples(
    st.integers(0, 4),
    st.integers(0, 4),
    st.sampled_from(DOMAIN_A),
    st.sampled_from(DOMAIN_B),
)

rows = st.lists(row_strategy, min_size=1, max_size=30)


@st.composite
def chains(draw, domain):
    """A duplicate-free preference chain over ``domain``."""
    length = draw(st.integers(0, len(domain)))
    return tuple(draw(st.permutations(list(domain))))[:length]


@st.composite
def preferences(draw):
    """A random implicit preference over both nominal dimensions."""
    return Preference(
        {
            "A": ImplicitPreference(draw(chains(DOMAIN_A))),
            "B": ImplicitPreference(draw(chains(DOMAIN_B))),
        }
    )


def maintainer_for(base_rows, pref, backend):
    data = DynamicDataset(SCHEMA, base_rows)
    return data, IncrementalSkyline(data, pref, backend=backend)


@pytest.mark.parametrize("backend", available_backends())
class TestMetamorphic:
    @SETTINGS
    @given(base=rows, extra=row_strategy, pref=preferences())
    def test_insert_then_delete_is_identity(self, backend, base, extra, pref):
        data, sky = maintainer_for(base, pref, backend)
        before = sky.ids
        pid = data.append([extra])[0]
        insert_effect = sky.insert([pid])
        data.delete([pid])
        delete_effect = sky.delete([pid])
        assert sky.ids == before
        # The two effects must also be inverse in membership terms.
        assert insert_effect.changed == delete_effect.changed

    @SETTINGS
    @given(base=rows, extras=st.lists(row_strategy, max_size=10),
           pref=preferences())
    def test_n_inserts_equal_one_rebuild(self, backend, base, extras, pref):
        data, sky = maintainer_for(base, pref, backend)
        for row in extras:
            sky.insert(data.append([row]))
        extended = Dataset(SCHEMA, list(base) + list(extras))
        fresh = IncrementalSkyline(
            DynamicDataset.from_dataset(extended), pref, backend=backend
        )
        assert sky.ids == fresh.ids
        # ... and equal the maintainer's own from-scratch rebuild.
        assert sky.ids == sky.rebuild()

    @SETTINGS
    @given(base=rows, pref=preferences())
    def test_delete_of_non_skyline_point_changes_nothing(
        self, backend, base, pref
    ):
        data, sky = maintainer_for(base, pref, backend)
        outside = [i for i in data.ids if i not in sky]
        if not outside:
            return  # every point is in the skyline; nothing to test
        before = sky.ids
        victim = outside[len(outside) // 2]
        data.delete([victim])
        effect = sky.delete([victim])
        assert not effect.changed
        assert sky.ids == before
        assert sky.ids == sky.rebuild()


# ---------------------------------------------------------------------------
# grouped SKY(R0) against bruteforce
# ---------------------------------------------------------------------------
#: Schemas for the base-order differential: mixed dimensions (four
#: groups, dense enough that most hold dominated rows), numeric only
#: (one group, the empty nominal tuple) and nominal only (rows of a
#: group are identical, so every live row is a member).
GROUP_SCHEMAS = {
    "mixed": Schema(
        [
            numeric_min("x"),
            numeric_min("y"),
            nominal("A", DOMAIN_A[:2]),
            nominal("B", DOMAIN_B[:2]),
        ]
    ),
    "numeric-only": Schema([numeric_min("x"), numeric_min("y")]),
    "nominal-only": Schema(
        [nominal("A", DOMAIN_A), nominal("B", DOMAIN_B)]
    ),
}


def _rows_of(schema):
    return st.tuples(
        *(
            st.sampled_from(spec.domain) if spec.domain else st.integers(0, 3)
            for spec in schema
        )
    )


@st.composite
def base_churn(draw, schema):
    """Base rows plus an op list: fresh inserts, inserts copying a live
    row (duplicates), and delete batches tombstoning one or more live
    rows (picked by index) before the maintainer absorbs any of them."""
    row = _rows_of(schema)
    base = draw(st.lists(row, max_size=20))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), row),
                st.tuples(st.just("copy"), st.integers(0, 10_000)),
                st.tuples(
                    st.just("delete"),
                    st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
                ),
            ),
            max_size=25,
        )
    )
    return base, ops


def expected_delete(data, table, members, victim):
    """The delete rule over the whole dataset, ungrouped: a member's
    exclusive region among the live rows, screened by every other
    member (a member tombstoned in the same batch included), enters
    as its skyline; a non-member changes nothing."""
    if victim not in members:
        return ()
    rows, dominates = data.canonical_rows, table.dominates
    others = [rows[m] for m in members if m != victim]
    exclusive = [
        i for i in data.ids
        if dominates(rows[victim], rows[i])
        and not any(dominates(m, rows[i]) for m in others)
    ]
    return tuple(sorted(bruteforce_skyline(rows, exclusive, table)))


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("schema_name", sorted(GROUP_SCHEMAS))
@pytest.mark.parametrize("python_rows", ["default", 0])
class TestGroupedBaseSkyline:
    """The base-order maintainer works per nominal group; after every
    insert and delete batch its ids must equal a bruteforce skyline of
    the live rows, and each effect must account for the change exactly
    and match the ungrouped delete rule.  ``python_rows=0`` sends every
    grouped step to the configured backend's context instead of the
    python kernels."""

    @SETTINGS
    @given(data_=st.data())
    def test_churn_matches_bruteforce(
        self, backend, schema_name, python_rows, data_
    ):
        limit = (
            incremental.PYTHON_GROUP_ROWS if python_rows == "default"
            else python_rows
        )
        schema = GROUP_SCHEMAS[schema_name]
        base, ops = data_.draw(base_churn(schema))
        data = DynamicDataset(schema, base)
        table = RankTable.compile(schema)

        def oracle():
            return tuple(sorted(bruteforce_skyline(
                data.canonical_rows, data.ids, table, backend="python"
            )))

        with mock.patch.object(incremental, "PYTHON_GROUP_ROWS", limit):
            sky = IncrementalSkyline(data, backend=backend)
            assert sky.ids == oracle()
            for kind, payload in ops:
                live = data.ids
                if kind != "insert" and not live:
                    continue
                if kind == "delete":
                    victims = sorted({live[k % len(live)] for k in payload})
                    data.delete(victims)
                    for victim in victims:
                        before = set(sky.ids)
                        entered = expected_delete(data, table, before, victim)
                        effect = sky.delete([victim])
                        assert effect.entered == entered, (victims, victim)
                        assert (before - set(effect.evicted)) | set(
                            effect.entered
                        ) == set(sky.ids)
                else:
                    row = payload if kind == "insert" else (
                        data.row(live[payload % len(live)])
                    )
                    before = set(sky.ids)
                    effect = sky.insert(data.append([row]))
                    assert (before - set(effect.evicted)) | set(
                        effect.entered
                    ) == set(sky.ids)
                assert sky.ids == oracle(), (kind, payload)


@st.composite
def tombstoned(draw, schema):
    """Rows plus the positions to tombstone before any build."""
    base = draw(st.lists(_rows_of(schema), max_size=30))
    dead = draw(st.sets(st.integers(0, max(0, len(base) - 1))))
    return base, sorted(i for i in dead if i < len(base))


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("schema_name", sorted(GROUP_SCHEMAS))
@pytest.mark.parametrize("python_rows", ["default", 0])
class TestBaseSkylineBuild:
    """``base_skyline`` builds ``SKY(R0)`` group by group; over the live
    rows of a dataset with tombstoned slots it must equal one
    ``sfs_skyline`` over every live row and a bruteforce skyline, and
    a plain :class:`Dataset` must give the same ids as its dynamic
    wrapper.  ``python_rows=0`` sends every group to the configured
    backend's context instead of the python kernels."""

    @SETTINGS
    @given(data_=st.data())
    def test_build_matches_sfs_and_bruteforce(
        self, backend, schema_name, python_rows, data_
    ):
        from repro.algorithms.sfs import sfs_skyline

        limit = (
            incremental.PYTHON_GROUP_ROWS if python_rows == "default"
            else python_rows
        )
        schema = GROUP_SCHEMAS[schema_name]
        base, dead = data_.draw(tombstoned(schema))
        data = DynamicDataset(schema, base)
        if dead:
            data.delete(dead)
        table = RankTable.compile(schema)
        with mock.patch.object(incremental, "PYTHON_GROUP_ROWS", limit):
            built = incremental.base_skyline(data, backend=backend)
            whole = incremental.base_skyline(
                Dataset(schema, base), backend=backend
            )
        rows = data.canonical_rows
        assert built == tuple(sorted(
            sfs_skyline(rows, data.ids, table, backend=backend)
        ))
        assert built == tuple(sorted(
            bruteforce_skyline(rows, data.ids, table, backend="python")
        ))
        assert whole == tuple(sorted(bruteforce_skyline(
            rows, range(len(base)), table, backend="python"
        )))


# ---------------------------------------------------------------------------
# one batch against the same ids in batches of one
# ---------------------------------------------------------------------------
def _improved(schema, row):
    """``row`` one better on every numeric dimension: inserted after
    ``row``, it evicts ``row`` within the same batch."""
    return tuple(
        value if spec.domain else value - 1 for spec, value in zip(schema, row)
    )


@st.composite
def batch_churn(draw, schema):
    """Base rows plus insert batches of 1-8 rows (the last one sometimes
    improving the first, so a row enters and is evicted inside the
    batch) and delete batches of 1-8 live rows (picked by index)."""
    row = _rows_of(schema)
    base = draw(st.lists(row, max_size=20))
    ops = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            batch = draw(st.lists(row, min_size=1, max_size=7))
            if draw(st.booleans()):
                batch.append(_improved(schema, batch[0]))
            ops.append(("insert", batch))
        else:
            ops.append((
                "delete",
                draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=8)),
            ))
    return base, ops


@st.composite
def template_preferences(draw):
    """An implicit preference listing at least one value of ``A``."""
    chain_a = draw(chains(DOMAIN_A).filter(bool))
    return Preference({
        "A": ImplicitPreference(chain_a),
        "B": ImplicitPreference(draw(chains(DOMAIN_B))),
    })


def _net(effects):
    """The net ``(entered, evicted)`` of per-row effects, in order."""
    entered, evicted = set(), set()
    for effect in effects:
        evicted |= set(effect.evicted) - entered
        entered = (entered - set(effect.evicted)) | set(effect.entered)
    return tuple(sorted(entered)), tuple(sorted(evicted))


@pytest.mark.parametrize("backend", ["python", None], ids=["python", "default"])
@pytest.mark.parametrize("kind", ["template", "grouped", "grouped-backend"])
class TestBatchEqualsSingles:
    """A batch ``insert``/``delete`` lands on the same ids as absorbing
    its ids one at a time, and its effect is the net of the per-row
    effects.  ``template`` lists a nominal value (one ungrouped step on
    the backend's context); ``grouped`` is ``SKY(R0)`` per nominal group
    on the python kernels, ``grouped-backend`` the same with every group
    step on the backend's context (``PYTHON_GROUP_ROWS = 0``)."""

    @SETTINGS
    @given(data_=st.data())
    def test_batch_matches_batches_of_one(self, backend, kind, data_):
        base, ops = data_.draw(batch_churn(SCHEMA))
        pref = data_.draw(template_preferences()) if kind == "template" else None
        limit = 0 if kind == "grouped-backend" else incremental.PYTHON_GROUP_ROWS
        batched = DynamicDataset(SCHEMA, base)
        single = DynamicDataset(SCHEMA, base)
        with mock.patch.object(incremental, "PYTHON_GROUP_ROWS", limit):
            sky = IncrementalSkyline(batched, pref, backend=backend)
            ref = IncrementalSkyline(single, pref, backend=backend)
            assert sky._grouped == (kind != "template")
            for op, payload in ops:
                if op == "insert":
                    ids = batched.append(payload)
                    assert single.append(payload) == ids
                    effect = sky.insert(ids)
                    parts = [ref.insert([i]) for i in ids]
                else:
                    live = batched.ids
                    if not live:
                        continue
                    ids = sorted({live[k % len(live)] for k in payload})
                    batched.delete(ids)
                    single.delete(ids)
                    effect = sky.delete(ids)
                    parts = [ref.delete([i]) for i in ids]
                assert effect.point_ids == tuple(ids)
                assert sky.ids == ref.ids, (op, payload)
                assert (effect.entered, effect.evicted) == _net(parts)
            assert sky.ids == tuple(sorted(bruteforce_skyline(
                batched.canonical_rows, batched.ids, sky.table,
                backend="python",
            )))
