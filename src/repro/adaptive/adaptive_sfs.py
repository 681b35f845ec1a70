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

    **affected-dominator lemma** - between two members of ``SKY(R~)``,
    dominance under a refinement can only *appear* when the dominator
    is an *affected* point (one holding a value whose rank changed).
    An unaffected point's ranks are all unchanged, so if it dominated
    anything under the refined ranks it already did under the template
    - impossible inside a skyline.

Hence the extraction scan (:meth:`AdaptiveSFS.iter_query`) keeps a
window of *surviving affected* points only: every member (affected or
not) is checked against that window, affected survivors join it, and
everything not dominated is emitted - progressively, in ascending score
order.  Cost: ``O(l log l + l^2 + n * min(c, l))`` with ``l`` affected
members, ``n = |SKY(R~)|``, matching Section 4.2's accounting.

Batch evaluation on vectorized backends
    With ``S = SKY(R~)``, ``A`` the affected members and ``U = S \\ A``,
    the refined skyline is ``SKY(A) ∪ {u ∈ U : no s ∈ SKY(A) dominates
    u}`` - two kernel calls (:meth:`~repro.engine.base.Backend.skyline`
    over ``A``, then :meth:`~repro.engine.base.Backend.dominated_any`
    of ``U`` against ``SKY(A)``) on a context packed from the ``|S|``
    member rows only.  Proof: by Theorem 1 the answer is the skyline
    of ``S`` under the refinement, and by the lemma every dominator
    inside ``S`` is in ``A``.  So ``a ∈ A`` survives iff nothing in
    ``A`` dominates it, i.e. iff ``a ∈ SKY(A)``; and ``u ∈ U``
    survives iff nothing in ``A`` dominates it.  If some ``a ∈ A``
    dominates ``u``, then ``a`` is in ``SKY(A)`` or dominated by a
    member of it (dominance is a strict partial order and ``A`` is
    finite, so every element lies above a minimal one), and that
    member dominates ``u`` by transitivity; the converse holds because
    ``SKY(A) ⊆ A``.  :meth:`AdaptiveSFS.query` uses this path on
    vectorized backends; on the python backend the progressive scan
    stays faster (it skips the per-query packing).

Incremental maintenance (Section 4.3)
    ``SKY(R~)`` itself is kept by one
    :class:`~repro.updates.incremental.IncrementalSkyline`; the index
    is a score-ordered *view* over it that absorbs each
    :class:`~repro.updates.incremental.UpdateEffect` (:meth:`apply`)
    with ``O(log n)``-location list operations.  The serving layer
    owns the maintainer and feeds the view; standalone
    :meth:`~AdaptiveSFS.insert` / :meth:`~AdaptiveSFS.delete` create
    a private dynamic dataset and maintainer on first use and go
    through the same path.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.adaptive.ranking import changed_values, listed_values
from repro.adaptive.sorted_skyline import SortedSkylineList
from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset, Row
from repro.core.dominance import RankTable, score_sorted
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.engine.columnar import ColumnarStore
from repro.updates.dataset import DynamicDataset
from repro.updates.incremental import IncrementalSkyline, UpdateEffect


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
        self._setup(dataset, template, resolve_backend(backend))
        # The dataset's columnar store covers exactly its rows, so the
        # construction-time skyline can run on it.
        rows = dataset.canonical_rows
        members = sfs_skyline(
            rows,
            dataset.ids,
            self._template_table,
            backend=self._backend,
            store=dataset.columns if self._backend.vectorized else None,
        )
        self._load(rows, members)
        self.preprocessing_seconds = time.perf_counter() - started

    @classmethod
    def over(
        cls,
        maintainer: IncrementalSkyline,
        template: Optional[Preference] = None,
    ) -> "AdaptiveSFS":
        """A view of the ``SKY(R~)`` that ``maintainer`` keeps current.

        ``maintainer`` must maintain the template skyline of
        ``template`` (no preference of its own).  Its member ids are
        trusted as-is - only the ``|SKY(R~)|`` member scores are
        computed - and later mutations reach the view through
        :meth:`apply`.  This is how the serving layer builds its view.
        """
        started = time.perf_counter()
        out = cls.__new__(cls)
        out._setup(maintainer.data, template, maintainer.backend)
        out._load(maintainer.data.canonical_rows, maintainer.ids)
        out.follow(maintainer)
        out.preprocessing_seconds = time.perf_counter() - started
        return out

    def _setup(self, data, template: Optional[Preference], backend) -> None:
        self.schema = data.schema
        self.template = template if template is not None else Preference.empty()
        self.template.validate_against(self.schema)
        self._template_table = RankTable.compile(self.schema, None, self.template)
        self._backend = backend
        #: The points the view describes (the maintainer's once it has one).
        self._data = data
        self._maintainer: Optional[IncrementalSkyline] = None

    def _load(self, rows: Sequence[tuple], members: Sequence[int]) -> None:
        """(Re)fill the sorted list with ``members``, scored in one batch."""
        member_rows = [rows[i] for i in members]
        scores = self._backend.score_rows(self._template_table, member_rows)
        self._list = SortedSkylineList(self.schema.nominal_indices)
        self._list.bulk_load(zip(scores, members, member_rows))
        self._packed: Optional[tuple] = None

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
        return len(self._data)

    def row(self, point_id: int) -> Row:
        """Raw values of a (live) point."""
        return self._data.row(point_id)

    def storage_bytes(self) -> int:
        """Analytic storage of the index (sorted list + inverted lists)."""
        return self._list.storage_bytes()

    # ------------------------------------------------------------------
    # query processing (Algorithm 4)
    # ------------------------------------------------------------------
    def query(self, preference: Optional[Preference] = None) -> List[int]:
        """Skyline ids under ``preference`` (sorted ascending).

        Vectorized backends take the two-kernel batch path (module
        docstring); the python backend runs the progressive scan.
        """
        if not self._backend.vectorized:
            return sorted(self.iter_query(preference))
        query_table, affected = self._affected(preference)
        if not affected:
            return self.skyline_ids
        ids, store, position = self._member_pack()
        backend = self._backend
        ctx = backend.prepare(store.matrix, query_table, store=store)
        kept = backend.skyline(ctx, [position[i] for i in affected])
        unaffected = [k for k, i in enumerate(ids) if i not in affected]
        dominated = backend.dominated_any(ctx, unaffected, kept)
        kept.extend(k for k, dead in zip(unaffected, dominated) if not dead)
        return sorted(ids[k] for k in kept)

    def _member_pack(self) -> tuple:
        """``(ids, columnar store of their rows, id -> position)`` of the
        members, cached.

        Rebuilt lazily after a membership change; concurrent queries
        may build it twice (identical content, harmless).  The store
        carries the arrays a backend derives per store, so they are
        built once per membership, not once per query.
        """
        packed = self._packed
        if packed is None:
            ids = self._list.ids_in_order
            store = ColumnarStore.from_rows(
                [self._list.row_of(i) for i in ids],
                self.schema.nominal_indices,
                num_dims=len(self.schema),
            )
            packed = self._packed = (
                ids, store, {i: k for k, i in enumerate(ids)}
            )
        return packed

    def _affected(self, preference: Optional[Preference]):
        """``(query table, members holding a value whose rank changed)``."""
        query_table = RankTable.compile(self.schema, preference, self.template)
        changed = changed_values(self._template_table, query_table)
        return query_table, self._list.members_with_values(changed)

    def iter_query(
        self, preference: Optional[Preference] = None
    ) -> Iterator[int]:
        """Progressive evaluation: yields skyline ids in score order.

        Every yielded id is final the moment it is produced (Section
        4.3's progressive property).
        """
        query_table, affected = self._affected(preference)
        dominates = query_table.dominates
        row_of = self._list.row_of
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
            p = row_of(point_id)
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
        query_table, affected = self._affected(preference)
        rescored = self._rescore(query_table, affected)
        order = [
            point_id
            for _score, point_id, _aff in _merge_by_score(
                self._list.iter_excluding(affected), rescored
            )
        ]
        dominates = query_table.dominates
        row_of = self._list.row_of
        window: List[Tuple] = []
        out: List[int] = []
        for point_id in order:
            p = row_of(point_id)
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
        row_of = self._list.row_of
        scores = self._backend.score_rows(
            table, [row_of(i) for i in ordered]
        )
        return score_sorted(
            zip(scores, ordered), lambda i: table.rank_vector(row_of(i))
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
    def follow(self, maintainer: IncrementalSkyline) -> None:
        """Hand ``SKY(R~)`` over to ``maintainer`` from now on.

        ``maintainer`` must already hold exactly this view's members,
        over a dynamic dataset whose ids extend the view's: the view
        :meth:`over` builds, or a standalone index's private maintainer,
        seeded from :attr:`skyline_ids` on its first mutation so nothing
        is recomputed.  Its effects then reach the view through
        :meth:`apply`.
        """
        self._maintainer = maintainer
        self._data = maintainer.data

    def apply(self, effect: UpdateEffect) -> None:
        """Absorb one update the maintainer already made to ``SKY(R~)``.

        Evicted members leave the sorted list; entrants are scored
        under the template and placed by score.
        """
        for point_id in effect.evicted:
            self._list.remove(point_id)
        if effect.entered:
            rows = self._data.canonical_rows
            entered = sorted(effect.entered)
            new_rows = [rows[i] for i in entered]
            scores = self._backend.score_rows(self._template_table, new_rows)
            for score, point_id, row in zip(scores, entered, new_rows):
                self._list.insert(score, point_id, row)
        if effect.changed:
            self._packed = None

    def insert(self, row: Sequence[object]) -> int:
        """Add a data point; returns its id.

        If the point enters ``SKY(R~)`` it is placed into the sorted
        list and the members it dominates are evicted.
        """
        sky = self._own_maintainer()
        point_id = sky.data.append([tuple(row)])[0]
        self.apply(sky.insert(point_id))
        return point_id

    def delete(self, point_id: int) -> None:
        """Remove a data point.

        Deleting a non-member leaves ``SKY(R~)`` unchanged.  Deleting a
        member re-admits exactly the points only it was shadowing (its
        exclusive dominance region, see :mod:`repro.updates.incremental`).
        """
        sky = self._own_maintainer()
        sky.data.delete([point_id])
        self.apply(sky.delete(point_id))

    def _own_maintainer(self) -> IncrementalSkyline:
        """The maintainer, created over a private dynamic copy on first use.

        The caller's :class:`Dataset` is never mutated: the dynamic
        dataset shares its encodings and grows a private tail.
        """
        if self._maintainer is None:
            self.follow(
                IncrementalSkyline(
                    DynamicDataset.from_dataset(self._data),
                    template=self.template,
                    backend=self._backend,
                    members=self._list.ids_in_order,
                )
            )
        return self._maintainer

    def rebuild(self) -> None:
        """Recompute the view from the live points (for verification).

        Runs a fresh template-skyline computation and reloads the
        sorted list from it; the maintainer, if any, is left alone, so
        comparing :attr:`skyline_ids` before and after checks the
        maintained state against a from-scratch answer.
        """
        rows = self._data.canonical_rows
        members = sfs_skyline(
            rows, self._data.ids, self._template_table, backend=self._backend
        )
        self._load(rows, members)


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
