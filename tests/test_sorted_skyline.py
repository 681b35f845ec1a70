"""Unit tests for the presorted skyline list."""

import pytest

from repro.adaptive.sorted_skyline import SortedSkylineList


def make_list():
    """Two nominal dims at positions 2 and 3."""
    return SortedSkylineList(nominal_dims=(2, 3))


ROWS = {
    10: (1.0, 2.0, 0, 1),
    11: (0.5, 1.0, 1, 1),
    12: (2.0, 0.1, 0, 2),
    13: (0.1, 0.2, 2, 0),
}


def populate(lst):
    lst.insert(3.0, 10, ROWS[10])
    lst.insert(1.5, 11, ROWS[11])
    lst.insert(2.1, 12, ROWS[12])
    lst.insert(0.3, 13, ROWS[13])


class TestOrdering:
    def test_iteration_in_score_order(self):
        lst = make_list()
        populate(lst)
        assert [i for _s, i in lst] == [13, 11, 12, 10]

    def test_ids_in_order(self):
        lst = make_list()
        populate(lst)
        assert lst.ids_in_order == [13, 11, 12, 10]

    def test_ties_keep_all_entries(self):
        lst = make_list()
        lst.insert(1.0, 1, (0, 0, 0, 0))
        lst.insert(1.0, 2, (0, 0, 1, 1))
        lst.insert(1.0, 3, (0, 0, 2, 2))
        assert len(lst) == 3
        assert sorted(i for _s, i in lst) == [1, 2, 3]


class TestMembership:
    def test_contains_and_score(self):
        lst = make_list()
        populate(lst)
        assert 11 in lst
        assert 99 not in lst
        assert lst.score_of(11) == 1.5

    def test_duplicate_insert_rejected(self):
        lst = make_list()
        populate(lst)
        with pytest.raises(KeyError):
            lst.insert(9.9, 11, ROWS[11])

    def test_remove_returns_score(self):
        lst = make_list()
        populate(lst)
        assert lst.remove(12) == 2.1
        assert 12 not in lst
        assert len(lst) == 3

    def test_remove_missing_raises(self):
        lst = make_list()
        with pytest.raises(KeyError):
            lst.remove(5)

    def test_remove_with_tied_scores_removes_right_entry(self):
        lst = make_list()
        lst.insert(1.0, 1, (0, 0, 0, 0))
        lst.insert(1.0, 2, (0, 0, 1, 1))
        lst.insert(1.0, 3, (0, 0, 2, 2))
        lst.remove(2)
        assert sorted(i for _s, i in lst) == [1, 3]
        assert 2 not in lst


class TestInvertedIndex:
    def test_holders_of(self):
        lst = make_list()
        populate(lst)
        assert lst.holders_of(2, 0) == {10, 12}
        assert lst.holders_of(3, 1) == {10, 11}
        assert lst.holders_of(2, 9) == set()

    def test_members_with_values(self):
        lst = make_list()
        populate(lst)
        wanted = {2: {0}, 3: {0}}
        assert lst.members_with_values(wanted) == {10, 12, 13}

    def test_index_updated_on_remove(self):
        lst = make_list()
        populate(lst)
        lst.remove(10)
        assert lst.holders_of(2, 0) == {12}

    def test_iter_excluding(self):
        lst = make_list()
        populate(lst)
        assert [i for _s, i in lst.iter_excluding({11, 10})] == [13, 12]

    def test_storage_model(self):
        lst = make_list()
        populate(lst)
        # 4 members * 12 bytes + 8 inverted entries * 4 bytes.
        assert lst.storage_bytes() == 4 * 12 + 8 * 4
