"""A presorted skyline list with positional delete/re-insert.

Adaptive SFS keeps the template skyline ``SKY(R~)`` sorted by the
template score ``f``.  Per query, the ``l`` affected points are deleted
from the list and re-inserted with their query score; per data update,
single points are inserted or removed.  This module provides the sorted
container those operations need:

* :class:`SortedSkylineList` - parallel ``(scores, ids)`` arrays kept in
  ascending score order with :mod:`bisect` operations, giving
  ``O(log n)`` location plus ``O(n)`` memmove per update (amply fast at
  the skyline sizes involved, and exactly the structure the paper's
  complexity accounting assumes with its ``O(log n)`` per update - a
  balanced tree would shave the memmove but not change any reported
  trend),
* an inverted index per nominal dimension mapping value id to the set
  of member ids holding it, used to find affected points in output-
  sensitive time (Step 2 of Algorithm 4 - "one possible way is to have
  an index for each nominal dimension").

Each member's canonical row is held by reference, so the list is the
index's only per-member state: queries read member rows from it.
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple


class SortedSkylineList:
    """Ids sorted by score, with an inverted index over nominal values."""

    def __init__(self, nominal_dims: Sequence[int]) -> None:
        self._scores: List[float] = []
        self._ids: List[int] = []
        self._nominal_dims: Tuple[int, ...] = tuple(nominal_dims)
        self._inverted: Dict[int, Dict[int, Set[int]]] = {
            dim: {} for dim in self._nominal_dims
        }
        self._score_of: Dict[int, float] = {}
        self._row_of: Dict[int, Tuple] = {}

    # -- container protocol -----------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, point_id: object) -> bool:
        return point_id in self._score_of

    def __iter__(self) -> Iterator[Tuple[float, int]]:
        """(score, id) pairs in ascending score order."""
        return iter(zip(self._scores, self._ids))

    @property
    def ids_in_order(self) -> List[int]:
        """Member ids in ascending score order (copy)."""
        return list(self._ids)

    def score_of(self, point_id: int) -> float:
        """Current score of a member."""
        return self._score_of[point_id]

    def row_of(self, point_id: int) -> Tuple:
        """Canonical row of a member."""
        return self._row_of[point_id]

    # -- updates ---------------------------------------------------------
    def insert(self, score: float, point_id: int, row: Tuple) -> None:
        """Insert a member; ``row`` supplies its nominal values."""
        if point_id in self._score_of:
            raise KeyError(f"point {point_id} already in the list")
        pos = bisect.bisect_right(self._scores, score)
        self._scores.insert(pos, score)
        self._ids.insert(pos, point_id)
        self._score_of[point_id] = score
        self._row_of[point_id] = row
        for dim in self._nominal_dims:
            self._inverted[dim].setdefault(row[dim], set()).add(point_id)

    def bulk_load(
        self, entries: Iterable[Tuple[float, int, Tuple]]
    ) -> None:
        """Insert many ``(score, id, row)`` members at once.

        One sort over the batch replaces per-member bisect/memmove
        insertions, turning index construction into a single
        ``O(n log n)`` pass over backend-computed scores.  The list must
        be empty (bulk load is a construction-time operation).
        """
        if self._ids:
            raise ValueError("bulk_load requires an empty list")
        batch = sorted(entries, key=lambda entry: entry[0])
        self._scores = [score for score, _id, _row in batch]
        self._ids = [point_id for _score, point_id, _row in batch]
        for score, point_id, row in batch:
            if point_id in self._score_of:
                raise KeyError(f"point {point_id} appears twice in bulk load")
            self._score_of[point_id] = score
            self._row_of[point_id] = row
            for dim in self._nominal_dims:
                self._inverted[dim].setdefault(row[dim], set()).add(point_id)

    def remove(self, point_id: int) -> float:
        """Remove a member, returning its score.

        The stored score locates the entry in ``O(log n)`` (Section 4.2:
        "the value of f(p) based on R~ allows us to quickly locate the
        point in the sorted list").
        """
        try:
            score = self._score_of.pop(point_id)
        except KeyError:
            raise KeyError(f"point {point_id} not in the list") from None
        row = self._row_of.pop(point_id)
        pos = bisect.bisect_left(self._scores, score)
        while self._ids[pos] != point_id:
            pos += 1
        del self._scores[pos]
        del self._ids[pos]
        for dim in self._nominal_dims:
            bucket = self._inverted[dim].get(row[dim])
            if bucket is not None:
                bucket.discard(point_id)
                if not bucket:
                    del self._inverted[dim][row[dim]]
        return score

    # -- lookups ------------------------------------------------------------
    def holders_of(self, dim: int, value_id: int) -> Set[int]:
        """Member ids whose nominal dimension ``dim`` holds ``value_id``."""
        return set(self._inverted[dim].get(value_id, ()))

    def members_with_values(
        self, wanted: Dict[int, Set[int]]
    ) -> Set[int]:
        """Members holding any of the wanted values (dim -> value ids)."""
        out: Set[int] = set()
        for dim, vids in wanted.items():
            for vid in vids:
                out |= self._inverted[dim].get(vid, set())
        return out

    def iter_excluding(
        self, excluded: Set[int]
    ) -> Iterator[Tuple[float, int]]:
        """(score, id) in score order, skipping the excluded ids.

        This is the "delete the affected points" half of Algorithm 4
        without mutating the base list, so concurrent queries with
        different preferences stay independent.
        """
        for score, point_id in zip(self._scores, self._ids):
            if point_id not in excluded:
                yield score, point_id

    def storage_bytes(self) -> int:
        """Analytic storage: 8-byte score + 4-byte id per member, plus
        4 bytes per inverted-list entry."""
        n = len(self._ids)
        inverted_entries = sum(
            len(bucket)
            for per_dim in self._inverted.values()
            for bucket in per_dim.values()
        )
        return 12 * n + 4 * inverted_entries
