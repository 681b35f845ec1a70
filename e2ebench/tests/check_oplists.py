"""Operation lists are a pure function of (seed, seconds)."""

import pytest

import oplists


@pytest.fixture(scope="module")
def small():
    dataset, template = oplists.build_dataset(2_000, 5)
    return dataset, template


def _lists(dataset, template, seed, seconds):
    drawer = oplists.PreferenceDrawer(dataset, template)
    return {
        "wire": oplists.describe(oplists.wire_ops(drawer, seed, seconds)),
        "cold": oplists.describe(oplists.cold_ops(drawer, seed, seconds)),
        "scan": oplists.describe(oplists.scan_ops(drawer, seed, seconds)),
        "churn": oplists.describe(oplists.churn_ops(drawer, len(dataset), seed, seconds)),
    }


def test_same_seed_same_operations(small):
    assert _lists(*small, seed=3, seconds=2) == _lists(*small, seed=3, seconds=2)


def test_other_seed_other_operations(small):
    first, second = _lists(*small, seed=3, seconds=2), _lists(*small, seed=4, seconds=2)
    for name in first:
        assert first[name] != second[name], name
    # Hot pools are fixed; only their draw sequences follow the seed.
    assert first["wire"]["pool"] == second["wire"]["pool"]
    assert first["churn"]["pool"] == second["churn"]["pool"]


def test_dataset_is_seeded():
    a, _ = oplists.build_dataset(500, 1)
    b, _ = oplists.build_dataset(500, 1)
    c, _ = oplists.build_dataset(500, 2)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_counts_follow_seconds_not_clocks(small):
    dataset, template = small
    drawer = oplists.PreferenceDrawer(dataset, template)
    assert len(oplists.cold_ops(drawer, 1, 3)) == 3 * oplists.COLD_READS_PER_S
    assert len(oplists.wire_ops(drawer, 1, 1).reads) == max(oplists.MIN_OPS, oplists.WIRE_READS_PER_S)
    assert len(oplists.scan_ops(drawer, 1, 1)) == oplists.MIN_OPS


def test_cold_preferences_are_distinct_and_outnumber_the_cache(small):
    dataset, template = small
    prefs = oplists.cold_ops(oplists.PreferenceDrawer(dataset, template), 1, 10)
    keys = {oplists.describe([p])["prefs"][0] for p in prefs}
    assert len(keys) == len(prefs) > oplists.CACHE_CAPACITY


def test_churn_ends_with_a_fixed_wal_tail(small):
    dataset, template = small
    drawer = oplists.PreferenceDrawer(dataset, template)
    for seconds in (1, 7, 10):
        batches = 2 * len(oplists.churn_ops(drawer, len(dataset), 1, seconds).cycles)
        assert batches % oplists.CHECKPOINT_EVERY == 2 * oplists.CHURN_TAIL_CYCLES


def test_churn_deletes_only_live_ids(small):
    dataset, template = small
    ops = oplists.churn_ops(oplists.PreferenceDrawer(dataset, template), len(dataset), 2, 2)
    live = set(range(len(dataset)))
    for cycle in ops.cycles:
        assert not live & set(cycle.expected_ids)
        live |= set(cycle.expected_ids)
        assert set(cycle.deletes) <= live
        live -= set(cycle.deletes)
