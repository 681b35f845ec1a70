"""The shared vectorized prepare against the python reference, on every
kind of columnar store.

Every vectorized backend builds its context through the numpy
backend's ``prepare``: universal rank rows come from the store's
transposed matrix, each nominal rank row is one gather of the store's
value ids through the compiled preference, and scores add the ranks
dimension by dimension.  Whatever way the store came to exist - a
dataset's cached view, a dynamic dataset's grown view after appends,
deletes and compaction, a view over an mmap'd v2 snapshot sidecar, or
none at all - the context must equal what the python reference
computes row by row.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.attributes import Schema, nominal, numeric_max, numeric_min
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import ImplicitPreference, Preference
from repro.engine import get_backend, make_bitset_backend, numpy_available
from repro.storage import dataset_state, restore_dataset
from repro.storage.snapshot import read_snapshot, write_snapshot
from repro.updates.dataset import DynamicDataset

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

NARROW = tuple(f"n{i}" for i in range(5))
#: More values than the bitset tier's 64 exact bucket levels, so a long
#: preference takes its quantile fallback.
WIDE = tuple(f"w{i}" for i in range(80))

SCHEMA = Schema([
    numeric_min("lo"),
    nominal("narrow", NARROW),
    numeric_max("hi"),
    nominal("wide", WIDE),
])

# Mixed magnitudes make the float sum order-sensitive, so the scores
# check pins the left-to-right order of the reference.
number = st.one_of(
    st.sampled_from([0.0, -1.5, 5e-324, 1e16, -1e16, 2.5e-308]),
    st.floats(-1e18, 1e18, allow_nan=False),
)

rows_strategy = st.lists(
    st.tuples(
        number, st.sampled_from(NARROW), number, st.sampled_from(WIDE)
    ),
    min_size=2,
    max_size=40,
)


def listed(domain):
    """A preference prefix of ``domain``: empty up to every value."""
    return st.permutations(domain).flatmap(
        lambda order: st.integers(0, len(order)).map(
            lambda k: tuple(order[:k])
        )
    )


preference_strategy = st.tuples(listed(NARROW), listed(WIDE)).map(
    lambda chains: Preference({
        name: ImplicitPreference(chain)
        for name, chain in zip(("narrow", "wide"), chains)
        if chain
    })
)

BACKENDS = {
    "numpy": lambda: get_backend("numpy"),
    "bitset": lambda: make_bitset_backend(packed="numpy"),
    "bitset-kernel-off": lambda: make_bitset_backend(
        packed="numpy", kernel="off"
    ),
}


def dataset_stores(rows, victims, stack):
    dataset = Dataset(SCHEMA, rows)
    yield dataset.canonical_rows, dataset.columns


def dynamic_stores(rows, victims, stack):
    half = len(rows) // 2
    data = DynamicDataset.from_dataset(Dataset(SCHEMA, rows[:half]))
    data.columns  # the builder now holds the first half
    data.append(rows[half:])
    yield data.canonical_rows, data.columns
    data.delete(victims)
    yield data.canonical_rows, data.columns
    data.compact()
    yield data.canonical_rows, data.columns
    data.append(rows)
    yield data.canonical_rows, data.columns


def borrowed_stores(rows, victims, stack):
    import repro.storage.snapshot as snapshot_module
    from repro.core.colstore import BorrowedColumnStore

    data = DynamicDataset.from_dataset(Dataset(SCHEMA, rows))
    data.delete(victims)
    directory = Path(stack.enter_context(tempfile.TemporaryDirectory()))
    threshold = snapshot_module.BINARY_PAYLOAD_THRESHOLD
    snapshot_module.BINARY_PAYLOAD_THRESHOLD = 1  # force the sidecar
    try:
        path = write_snapshot(
            directory / "snap.json", {"data": dataset_state(data)}
        )
    finally:
        snapshot_module.BINARY_PAYLOAD_THRESHOLD = threshold
    restored = restore_dataset(read_snapshot(path, mmap=True)["data"])
    base = restored.base_store
    stack.callback(base.close)
    assert isinstance(base, BorrowedColumnStore)
    store = restored.columns
    assert store.matrix is base.matrix
    yield restored.canonical_rows, store


def no_store(rows, victims, stack):
    yield Dataset(SCHEMA, rows).canonical_rows, None


STORES = {
    "dataset": dataset_stores,
    "dynamic": dynamic_stores,
    "borrowed": borrowed_stores,
    "none": no_store,
}


def check_context(backend, rows, table, store):
    import numpy as np

    ctx = backend.prepare(rows, table, store=store)
    for i, row in enumerate(rows):
        assert tuple(ctx.ranks_t[:, i].tolist()) == table.rank_vector(row)
    matrix = store.matrix if store is not None else np.asarray(
        rows, dtype=np.float64
    )
    assert np.array_equal(ctx.values_t, matrix.T)
    python = get_backend("python")
    assert ctx.scores.tolist() == python.score_rows(table, rows)


@pytest.mark.parametrize("store_kind", sorted(STORES))
@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=rows_strategy, preference=preference_strategy, data=st.data())
def test_prepare_matches_python_reference(
    backend_name, store_kind, rows, preference, data
):
    backend = BACKENDS[backend_name]()
    table = RankTable.compile(SCHEMA, preference)
    victims = data.draw(
        st.lists(
            st.integers(0, len(rows) - 1), unique=True, max_size=len(rows) - 1
        )
    )
    with contextlib.ExitStack() as stack:
        for canonical, store in STORES[store_kind](rows, victims, stack):
            check_context(backend, canonical, table, store)


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(rows=rows_strategy, preference=preference_strategy, data=st.data())
def test_extend_matches_python_reference(
    backend_name, rows, preference, data
):
    """A context grown batch by batch over a dynamic dataset's appends
    holds the reference ranks, values and scores, buckets that stay
    monotone in rank across old and new columns, and gives the
    reference skyline and dominated-any verdicts."""
    import numpy as np

    backend = BACKENDS[backend_name]()
    python = get_backend("python")
    table = RankTable.compile(SCHEMA, preference)
    cuts = sorted(
        data.draw(st.lists(st.integers(1, len(rows) - 1), max_size=4))
    )
    dynamic = DynamicDataset(SCHEMA, rows[: cuts[0] if cuts else len(rows)])
    ctx = backend.prepare(
        dynamic.canonical_rows, table, store=dynamic.columns
    )
    for start, stop in zip(cuts, cuts[1:] + [len(rows)]):
        dynamic.append(rows[start:stop])
        ctx = backend.extend(ctx, dynamic.canonical_rows, dynamic.columns)
    canonical = dynamic.canonical_rows
    ids = list(range(len(canonical)))
    check = python.prepare(canonical, table)
    assert ctx.ranks_t.shape[1] == len(canonical)
    for i, row in enumerate(canonical):
        assert tuple(ctx.ranks_t[:, i].tolist()) == table.rank_vector(row)
    assert np.array_equal(ctx.values_t, np.asarray(canonical).T)
    assert ctx.scores.tolist() == python.score_rows(table, canonical)
    for ranks, buckets in zip(ctx.ranks_t, getattr(ctx, "buckets_t", ())):
        order = np.lexsort((buckets, ranks))
        steps = np.diff(buckets[order].astype(int))
        assert (steps >= 0).all()
        assert (steps[np.diff(ranks[order]) == 0] == 0).all()
    assert backend.skyline(ctx, ids) == python.skyline(check, ids)
    half = ids[: len(ids) // 2]
    assert backend.dominated_any(ctx, ids, half) == python.dominated_any(
        check, ids, half
    )
