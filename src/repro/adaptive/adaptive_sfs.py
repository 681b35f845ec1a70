"""Adaptive SFS (SFS-A): the progressive index of Section 4.

Preprocessing (Algorithm 3)
    compute the template skyline ``SKY(R~)``, rank values per the
    template, presort ``SKY(R~)`` by the score ``f``.

Query processing (Algorithm 4)
    re-rank the values listed by the query, delete the ``l`` affected
    points from the sorted list, re-insert them with their new scores,
    then run the SFS extraction scan.  By Theorem 1 the search never
    needs to leave ``SKY(R~)``.

This implementation adds the two optimisations the paper describes for
the last step and makes them safe with an explicit invariant:

    between two members of ``SKY(R~)``, dominance under a refinement
    can only *appear* when the dominator is an *affected* point (one
    holding a value whose rank changed).  An unaffected point's ranks
    are all unchanged, so if it dominated anything under the refined
    ranks it already did under the template - impossible inside a
    skyline.

Hence the extraction scan keeps a window of *surviving affected* points
only: every member (affected or not) is checked against that window,
affected survivors join it, and everything not dominated is emitted -
progressively, in ascending score order.  Cost:
``O(l log l + l^2 + n * min(c, l))`` with ``l`` affected members,
``n = |SKY(R~)|``, matching Section 4.2's accounting.

Incremental maintenance (Section 4.3) is supported via :meth:`insert`
and :meth:`delete`; the sorted list absorbs updates with
``O(log n)``-location operations, and a deletion of a skyline member
re-admits exactly the points it used to dominate.
"""

from __future__ import annotations

import time
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.adaptive.ranking import changed_values, listed_values
from repro.adaptive.sorted_skyline import SortedSkylineList
from repro.algorithms.sfs import sfs_skyline
from repro.core.colstore import growable_rows
from repro.core.dataset import Dataset, Row
from repro.core.dominance import RankTable, score_sorted
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.exceptions import DatasetError


class AdaptiveSFS:
    """The Adaptive SFS index (``SFS-A`` in the paper's experiments).

    Examples
    --------
    >>> from repro.core.attributes import Schema, numeric_min, numeric_max, nominal
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), numeric_max("Class"),
    ...                  nominal("Group", ["T", "H", "M"])])
    >>> data = Dataset(schema, [(1600, 4, "T"), (2400, 1, "T"),
    ...                         (3000, 5, "H"), (3600, 4, "H"),
    ...                         (2400, 2, "M"), (3000, 3, "M")])
    >>> index = AdaptiveSFS(data)
    >>> index.query(Preference({"Group": "T < M < *"}))   # Alice
    [0, 2]
    >>> index.query()                                     # Bob
    [0, 2, 4, 5]
    """

    name = "SFS-A"

    def __init__(
        self,
        dataset: Dataset,
        template: Optional[Preference] = None,
        backend=None,
    ) -> None:
        started = time.perf_counter()
        self.schema = dataset.schema
        self.template = template if template is not None else Preference.empty()
        self.template.validate_against(self.schema)
        self._template_table = RankTable.compile(self.schema, None, self.template)
        self._backend = resolve_backend(backend)

        # Own, growable copies of the data so insert()/delete() do not
        # mutate the caller's Dataset.  A store-backed dataset stays
        # borrowed: growable_rows chains a private overlay over the
        # immutable base instead of materializing n rows.
        self._raw: Sequence[Row] = growable_rows(dataset.raw_rows)
        self._rows: Sequence[Tuple] = growable_rows(dataset.canonical_rows)
        self._alive: List[bool] = [True] * len(self._rows)

        # The dataset's columnar store covers exactly the initial rows,
        # so the construction-time skyline and scoring can run on it.
        store = dataset.columns if self._backend.vectorized else None
        self._list = SortedSkylineList(self.schema.nominal_indices)
        initial = sfs_skyline(
            self._rows,
            range(len(self._rows)),
            self._template_table,
            backend=self._backend,
            store=store,
        )
        scores = self._backend.score_rows(
            self._template_table, [self._rows[i] for i in initial]
        )
        self._list.bulk_load(
            (score, point_id, self._rows[point_id])
            for score, point_id in zip(scores, initial)
        )
        self.preprocessing_seconds = time.perf_counter() - started

    @classmethod
    def restore(
        cls,
        dataset: Dataset,
        template: Optional[Preference] = None,
        *,
        skyline_ids: Sequence[int],
        alive: Optional[Sequence[bool]] = None,
        backend=None,
    ) -> "AdaptiveSFS":
        """Re-attach an index to state it previously produced.

        The expensive half of construction is the template-skyline
        computation; a caller that persisted the member ids (the
        durability layer's snapshots do) can skip it entirely - only
        the |SKY(R~)| member scores are recomputed for the sorted list.
        ``dataset`` must cover the full id space the ids were minted in
        (position = id), with ``alive`` marking tombstoned slots
        (default: all live).  The ids are trusted as-is; the
        kill-and-recover differential tests verify they equal a fresh
        rebuild.
        """
        started = time.perf_counter()
        out = cls.__new__(cls)
        out.schema = dataset.schema
        out.template = (
            template if template is not None else Preference.empty()
        )
        out.template.validate_against(out.schema)
        out._template_table = RankTable.compile(out.schema, None, out.template)
        out._backend = resolve_backend(backend)
        out._raw = growable_rows(dataset.raw_rows)
        out._rows = growable_rows(dataset.canonical_rows)
        out._alive = (
            [bool(flag) for flag in alive]
            if alive is not None
            else [True] * len(out._rows)
        )
        members = sorted(skyline_ids)
        scores = out._backend.score_rows(
            out._template_table, [out._rows[i] for i in members]
        )
        out._list = SortedSkylineList(out.schema.nominal_indices)
        out._list.bulk_load(
            (score, point_id, out._rows[point_id])
            for score, point_id in zip(scores, members)
        )
        out.preprocessing_seconds = time.perf_counter() - started
        return out

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def skyline_ids(self) -> List[int]:
        """``SKY(R~)`` - the template skyline, sorted by id."""
        return sorted(self._list.ids_in_order)

    @property
    def num_points(self) -> int:
        """Number of live base points."""
        return sum(self._alive)

    def row(self, point_id: int) -> Row:
        """Raw values of a (live) point."""
        self._check_alive(point_id)
        return self._raw[point_id]

    def storage_bytes(self) -> int:
        """Analytic storage of the index (sorted list + inverted lists)."""
        return self._list.storage_bytes()

    # ------------------------------------------------------------------
    # query processing (Algorithm 4)
    # ------------------------------------------------------------------
    def query(self, preference: Optional[Preference] = None) -> List[int]:
        """Skyline ids under ``preference`` (sorted ascending)."""
        return sorted(self.iter_query(preference))

    def iter_query(
        self, preference: Optional[Preference] = None
    ) -> Iterator[int]:
        """Progressive evaluation: yields skyline ids in score order.

        Every yielded id is final the moment it is produced (Section
        4.3's progressive property).
        """
        query_table = RankTable.compile(self.schema, preference, self.template)
        changed = changed_values(self._template_table, query_table)
        affected = self._list.members_with_values(changed)

        dominates = query_table.dominates
        rows = self._rows
        window: List[Tuple] = []

        if not affected:
            # The refinement renames nothing the skyline holds: SKY is
            # unchanged (only affected points can disqualify anything).
            for _score, point_id in self._list:
                yield point_id
            return

        rescored = self._rescore(query_table, affected)
        for score, point_id, is_affected in _merge_by_score(
            self._list.iter_excluding(affected), rescored
        ):
            p = rows[point_id]
            if any(dominates(w, p) for w in window):
                continue
            if is_affected:
                window.append(p)
            yield point_id

    def query_scan(self, preference: Optional[Preference] = None) -> List[int]:
        """Reference evaluation: full SFS scan over the re-sorted list.

        Same output as :meth:`query`, without the affected-window
        optimisation; kept for cross-checking and for readers following
        Algorithm 4 line by line.
        """
        query_table = RankTable.compile(self.schema, preference, self.template)
        changed = changed_values(self._template_table, query_table)
        affected = self._list.members_with_values(changed)
        rescored = self._rescore(query_table, affected)
        order = [
            point_id
            for _score, point_id, _aff in _merge_by_score(
                self._list.iter_excluding(affected), rescored
            )
        ]
        dominates = query_table.dominates
        rows = self._rows
        window: List[Tuple] = []
        out: List[int] = []
        for point_id in order:
            p = rows[point_id]
            if any(dominates(w, p) for w in window):
                continue
            window.append(p)
            out.append(point_id)
        return sorted(out)

    def _rescore(self, table: RankTable, point_ids) -> List[Tuple[float, int]]:
        """Backend-batched ``(score, id)`` pairs in SFS visit order.

        All sorting keys of the index - construction, per-query re-rank
        and maintenance - flow through the same backend kernel so their
        float summation order is consistent everywhere (mixed summation
        orders could flip near-tied visit orders).  Equal scores are
        ordered by rank vector (:func:`score_sorted`), so an affected
        dominator whose score rounded onto its victim's still comes
        first; exact ties stay in id order.
        """
        ordered = sorted(point_ids)
        scores = self._backend.score_rows(
            table, [self._rows[i] for i in ordered]
        )
        rows = self._rows
        return score_sorted(
            zip(scores, ordered), lambda i: table.rank_vector(rows[i])
        )

    # ------------------------------------------------------------------
    # measurements used by the benchmark harness
    # ------------------------------------------------------------------
    def affect_count(self, preference: Optional[Preference] = None) -> int:
        """``|AFFECT(R)|``: members holding any value listed in ``R~'``.

        The paper's measurement (5) counts a skyline point as affected
        when it contains a value *listed* by the query preference
        (template prefix included), independent of whether its rank
        changed.
        """
        query_table = RankTable.compile(self.schema, preference, self.template)
        return len(self._list.members_with_values(listed_values(query_table)))

    # ------------------------------------------------------------------
    # incremental maintenance (Section 4.3)
    # ------------------------------------------------------------------
    def insert(self, row: Sequence[object]) -> int:
        """Add a data point; returns its id.

        If the point enters ``SKY(R~)`` it is placed into the sorted
        list and the members it dominates are evicted.
        """
        row_t = tuple(row)
        self.schema.validate_row(row_t)
        canonical = Dataset(self.schema, [row_t]).canonical(0)
        point_id = len(self._rows)
        self._raw.append(row_t)
        self._rows.append(canonical)
        self._alive.append(True)

        table = self._template_table
        dominates = table.dominates
        rows = self._rows
        members = self._list.ids_in_order
        if any(dominates(rows[m], canonical) for m in members):
            return point_id
        for m in members:
            if dominates(canonical, rows[m]):
                self._list.remove(m, rows[m])
        score = self._backend.score_rows(table, [canonical])[0]
        self._list.insert(score, point_id, canonical)
        return point_id

    def delete(self, point_id: int) -> None:
        """Remove a data point.

        Deleting a non-member is O(1).  Deleting a member re-admits the
        points only it was shadowing: every candidate is a live point the
        deleted member dominated; candidates never dominate surviving
        members (transitivity would contradict the member's skyline
        membership), so a score-ordered scan against members plus
        already-admitted candidates decides them all.
        """
        self._check_alive(point_id)
        self._alive[point_id] = False
        if point_id not in self._list:
            return
        removed_row = self._rows[point_id]
        self._list.remove(point_id, removed_row)

        table = self._template_table
        dominates = table.dominates
        rows = self._rows
        candidates = [
            i
            for i in range(len(rows))
            if self._alive[i]
            and i not in self._list
            and dominates(removed_row, rows[i])
        ]
        members = [rows[m] for m in self._list.ids_in_order]
        admitted: List[Tuple] = []
        for score, i in self._rescore(table, candidates):
            p = rows[i]
            if any(dominates(q, p) for q in members):
                continue
            if any(dominates(q, p) for q in admitted):
                continue
            admitted.append(p)
            self._list.insert(score, i, p)

    def rebuild(self) -> None:
        """Recompute the index from the live points (for verification)."""
        self._list = SortedSkylineList(self.schema.nominal_indices)
        live = [i for i in range(len(self._rows)) if self._alive[i]]
        members = sfs_skyline(
            self._rows, live, self._template_table, backend=self._backend
        )
        self._list.bulk_load(
            (score, point_id, self._rows[point_id])
            for score, point_id in self._rescore(self._template_table, members)
        )

    def _check_alive(self, point_id: int) -> None:
        if not (0 <= point_id < len(self._rows)) or not self._alive[point_id]:
            raise DatasetError(f"no live point with id {point_id}")


def _merge_by_score(
    unaffected: Iterator[Tuple[float, int]],
    rescored: List[Tuple[float, int]],
) -> Iterator[Tuple[float, int, bool]]:
    """Merge the two score-sorted streams; flags re-scored entries.

    On equal scores the re-scored (affected) entry goes first: only
    affected members can dominate under the refinement (module
    docstring), and float rounding can tie a dominator's score with
    its victim's.  Ties among re-scored entries keep
    :meth:`AdaptiveSFS._rescore`'s rank-vector order; unaffected
    members never dominate each other.
    """
    pending = iter(rescored)
    next_affected = next(pending, None)
    for score, point_id in unaffected:
        while next_affected is not None and next_affected[0] <= score:
            yield next_affected[0], next_affected[1], True
            next_affected = next(pending, None)
        yield score, point_id, False
    while next_affected is not None:
        yield next_affected[0], next_affected[1], True
        next_affected = next(pending, None)
