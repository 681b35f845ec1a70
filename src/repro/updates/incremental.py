"""Incremental skyline maintenance under inserts and deletes.

A skyline over a churning table can be kept current far cheaper than it
can be recomputed, because updates have *local* effects.  Write ``D``
for the live rows before a batch and ``M = SKY(D)`` for the members.

* **insert** of a batch ``B``: a new row ``p`` enters iff no member and
  no other new row dominates it, so the entrants ``E`` are the
  ``skyline`` of the new rows no member dominates.  (A row of ``D``
  dominating ``p`` is a member or dominated by one, and so is a new row
  some member dominates; either way a member dominates ``p``.)  A
  member ``m``
  leaves iff some entrant dominates it: a new row ``b`` dominating
  ``m`` is an entrant or is dominated by a row of ``SKY(D ∪ B)``; that
  row is no member (a member dominating ``m`` contradicts
  ``m ∈ M``), so it is an entrant and dominates ``m``.  Nothing outside
  ``M ∪ B`` can enter - a non-member was dominated by some member
  ``m``; whatever evicts ``m`` dominates it too (transitivity).  So an
  insert is ``dominated_any`` of the new rows against the members,
  ``skyline`` over the survivors, and ``dominated_any`` of the members
  against the entrants (:func:`admit`, which the serving layer's cache
  patcher shares).
* **delete** of a batch: departed non-members have no effect (they
  disqualified nothing).  When members ``X ⊆ M`` depart, the only
  possible entrants are the live rows some departed member dominates
  and no remaining member does (a row that entered had all its member
  dominators in ``X``, and it had one).  Among those candidates, the
  entrants are exactly their mutual minima: a live dominator ``q`` of
  a candidate is no remaining member (the candidate is not dominated by
  one), and if ``q`` was not a member it was dominated by some member
  ``m``; ``m`` dominates the candidate too, so ``m ∈ X``, and a
  remaining member dominating ``q`` would dominate the candidate -
  ``q`` is a candidate as well.  So a delete is ``dominated_any`` of
  the live rows against the departed members, ``dominated_any`` of
  those shadowed rows against the remaining members, and ``skyline``
  over the candidates left (:func:`withdraw`).  A member tombstoned but
  not yet absorbed screens as a remaining member and never enters, so
  a batch may also be absorbed in parts.
* **groups under the base order** ``R0``: when the preference lists no
  value on any nominal dimension, every nominal value takes its
  dimension's default rank, and two distinct values sharing a rank are
  incomparable, which blocks dominance in both directions.  So ``p``
  can dominate ``q`` only if both carry the same value on every nominal
  dimension: dominance never crosses *groups* (rows with equal nominal
  tuples), and ``SKY(R0)`` is the union of the per-group skylines
  (numeric skylines, as the nominal values are equal inside a group).
  Hence both rules split by group: a batch's rows of one group are
  tested against, and evict, only that group's members; a departed
  member's shadowed rows lie in its own group, and only that group's
  members can screen them.

:class:`IncrementalSkyline` implements exactly that per compiled
preference, and its only dominance code is the engine backend's
kernels, on one context over every slot cached on the dataset's
``(compactions, num_slots)``: a delete batch reuses its insert batch's
context, an appended batch grows it (``backend.extend``), only a
compaction prepares afresh.  A maintainer whose table lists no nominal
value keys its rows and members by nominal tuple, applies both rules
per touched group and builds its skyline as the union of the group
skylines (:func:`base_skyline`, the library's one builder of
``SKY(R0)``).  A group step touching at most :data:`PYTHON_GROUP_ROWS`
rows (the group's members for an insert, its rows for a delete) runs on
the free-to-prepare python kernels, a larger one on the backend's
context.  On nominal dimensions two distinct *unlisted* values share
the default rank but are **incomparable** (the paper's semantics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.sfs import sfs_skyline
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.engine import get_backend, resolve_backend
from repro.exceptions import DatasetError
from repro.updates.dataset import DynamicDataset

#: Largest grouped step (rows it tests) run on the python reference
#: kernels.  A python kernel costs under a microsecond per row tested
#: (and the insert test stops at the first dominator), a vectorized
#: call tens to hundreds of microseconds whatever its size; on a 20k-row
#: corpus with three numeric dimensions the two cross at 500 to 1000
#: rows.
PYTHON_GROUP_ROWS = 512


@dataclass(frozen=True)
class UpdateEffect:
    """What one maintained batch did to the skyline: the member ids
    that joined/left, net of the batch (a row evicted by a later row of
    its own batch is in neither)."""

    kind: str
    point_ids: Tuple[int, ...]
    entered: Tuple[int, ...]
    evicted: Tuple[int, ...]

    @property
    def changed(self) -> bool:
        """True iff the skyline membership changed at all."""
        return bool(self.entered or self.evicted)


def admit(
    backend, ctx, members: Sequence[int], new_ids: Sequence[int]
) -> Tuple[List[int], List[int]]:
    """The insert rule: ``(entered, evicted)`` for the batch ``new_ids``
    (``ctx`` covers every new row and every member)."""
    if members:
        dominated = backend.dominated_any(ctx, new_ids, members)
        new_ids = [p for p, hit in zip(new_ids, dominated) if not hit]
    if len(new_ids) > 1:
        new_ids = backend.skyline(ctx, new_ids)
    if not (new_ids and members):
        return list(new_ids), []
    beaten = backend.dominated_any(ctx, members, new_ids)
    return list(new_ids), [m for m, hit in zip(members, beaten) if hit]


def withdraw(backend, ctx, departed: Sequence[int], live: Sequence[int],
             members: Sequence[int]) -> List[int]:
    """The delete rule: the ``live`` rows entering once ``departed``
    leave and ``members`` remain."""
    shadowed = backend.dominated_any(ctx, live, departed)
    candidates = [i for i, hit in zip(live, shadowed) if hit]
    if candidates and members:
        screened = backend.dominated_any(ctx, candidates, members)
        candidates = [i for i, hit in zip(candidates, screened) if not hit]
    return backend.skyline(ctx, candidates) if candidates else []


def base_skyline(data, *, backend=None) -> Tuple[int, ...]:
    """``SKY(R0)`` of ``data``'s live rows, ascending.

    The one builder of the base skyline (the order listing no nominal
    value): a base :class:`IncrementalSkyline` computes it group by
    group.  ``data`` is a :class:`DynamicDataset` or a
    :class:`~repro.core.dataset.Dataset`, which is wrapped without
    re-encoding a row.
    """
    if not isinstance(data, DynamicDataset):
        data = DynamicDataset.from_dataset(data)
    return IncrementalSkyline(data, backend=backend).ids


class IncrementalSkyline:
    """Maintain one preference's skyline over a :class:`DynamicDataset`.

    Examples
    --------
    >>> from repro.core.attributes import Schema, nominal, numeric_min
    >>> from repro.core.dataset import Dataset
    >>> schema = Schema([numeric_min("Price"), nominal("G", ["T", "H"])])
    >>> data = DynamicDataset.from_dataset(
    ...     Dataset(schema, [(10, "T"), (8, "H"), (12, "T")]))
    >>> sky = IncrementalSkyline(data)
    >>> sky.ids                       # (12, "T") dominated by (10, "T")
    (0, 1)
    >>> pid = data.append([(9, "T")])[0]
    >>> sky.insert([pid]).evicted     # (9, "T") evicts (10, "T")
    (0,)
    >>> sky.ids
    (1, 3)
    """

    def __init__(
        self,
        data: DynamicDataset,
        preference: Optional[Preference] = None,
        *,
        template: Optional[Preference] = None,
        backend=None,
        members: Optional[Iterable[int]] = None,
    ) -> None:
        self.data = data
        self.table = RankTable.compile(data.schema, preference, template)
        self.backend = resolve_backend(backend)
        self._nominal = tuple(data.schema.nominal_indices)
        self._grouped = not any(
            self.table.listed_count(dim) for dim in self._nominal
        )
        self._python = get_backend("python")
        #: ``(group, members)`` id sets per nominal tuple (grouped
        #: maintainers only), built with the members.
        self._groups: Optional[Dict[tuple, Tuple[Set[int], Set[int]]]] = None
        self._ctx = None
        self._ctx_key: Optional[Tuple[int, int]] = None
        # ``members`` is the trusted-restore path: a caller re-attaching
        # a maintainer to state it previously exported (the durability
        # layer restoring a checkpoint) passes the persisted member ids
        # and skips the initial skyline computation.  The ids are taken
        # as-is; the kill-and-recover differential tests verify they
        # equal a fresh rebuild.
        self._members: Set[int] = self._build(members)
        self._ids_cache: Optional[Tuple[int, ...]] = None
        self._compactions = data.compactions

    # -- introspection -----------------------------------------------------
    @property
    def ids(self) -> Tuple[int, ...]:
        """The maintained skyline ids, sorted ascending."""
        if self._ids_cache is None:
            self._ids_cache = tuple(sorted(self._members))
        return self._ids_cache

    def __contains__(self, point_id: object) -> bool:
        return point_id in self._members

    def __len__(self) -> int:
        return len(self._members)

    # -- maintenance -------------------------------------------------------
    def insert(self, point_ids: Sequence[int]) -> UpdateEffect:
        """Absorb a batch of rows already appended (:func:`admit`)."""
        self._check_not_compacted()
        ids = list(point_ids)
        for point_id in ids:
            if not self.data.is_live(point_id):
                raise DatasetError(
                    f"insert({point_id}): append the row to the dataset first"
                )
        entered: List[int] = []
        evicted: List[int] = []
        for group, members, batch in self._parts(ids):
            if group is not None:
                group.update(batch)
            engine, ctx = self._kernels(len(members))
            came, went = admit(engine, ctx, list(members), batch)
            self._replace(members, went, came)
            entered += came
            evicted += went
        return UpdateEffect(
            "insert", tuple(ids), tuple(sorted(entered)), tuple(sorted(evicted))
        )

    def delete(self, point_ids: Sequence[int]) -> UpdateEffect:
        """Absorb a batch of rows already tombstoned (:func:`withdraw`);
        departed non-members cost O(1) each."""
        self._check_not_compacted()
        ids = list(point_ids)
        for point_id in ids:
            if self.data.is_live(point_id):
                raise DatasetError(
                    f"delete({point_id}): tombstone the row in the dataset first"
                )
        entered: List[int] = []
        evicted: List[int] = []
        is_live = self.data.is_live
        for group, members, batch in self._parts(ids):
            if group is not None:
                group.difference_update(batch)
            gone = [i for i in batch if i in members]
            if not gone:
                continue
            # Rows tombstoned but not yet absorbed screen, never enter.
            live = self.data.ids if group is None else [
                i for i in group if is_live(i)
            ]
            engine, ctx = self._kernels(len(live))
            came = withdraw(engine, ctx, gone, live, list(members - set(gone)))
            self._replace(members, gone, came)
            entered += came
            evicted += gone
        return UpdateEffect(
            "delete", tuple(ids), tuple(sorted(entered)), tuple(sorted(evicted))
        )

    def rebuild(self) -> Tuple[int, ...]:
        """Recompute from scratch and replace the members.

        Serves two roles: the verification oracle of the metamorphic
        tests, and the one legitimate way to re-attach a maintainer
        after :meth:`DynamicDataset.compact` reassigned the id space
        (the group index is rebuilt alongside the members).
        """
        self._members = self._build(None)
        self._ids_cache = None
        self._compactions = self.data.compactions
        return self.ids

    # -- internals ---------------------------------------------------------
    def _build(self, members: Optional[Iterable[int]]) -> Set[int]:
        """The member set: ``members`` as given, else computed afresh.

        A grouped maintainer (re)builds its group index in the same
        pass, over the live rows plus the given members, and computes
        ``SKY`` as the union of the per-group skylines (the group lemma
        in the module docstring), each on the kernels :meth:`_kernels`
        picks for the group's size.  Any other maintainer runs one
        skyline over every live row on the backend.
        """
        data = self.data
        if not self._grouped:
            if members is not None:
                return set(members)
            return set(
                sfs_skyline(
                    data.canonical_rows, data.ids, self.table,
                    backend=self.backend,
                    store=data.columns if self.backend.vectorized else None,
                )
            )
        given = set(members) if members is not None else set()
        points = sorted(given.union(data.ids)) if given else data.ids
        # The nominal values are read from the rows' float block when
        # they expose one (a store-backed base), so no row tuple is
        # materialized.
        rows = data.canonical_rows
        nominal = self._nominal
        block_of = getattr(rows, "matrix_block", None)
        block = block_of(0, len(rows)) if block_of is not None else None
        if block is None:
            keys = [tuple(rows[i][d] for d in nominal) for i in points]
        else:
            keys = block[list(points)][:, list(nominal)].astype(int).tolist()
        groups: Dict[tuple, Tuple[Set[int], Set[int]]] = {}
        for point, key in zip(points, keys):
            group = groups.get(tuple(key))
            if group is None:
                group = groups[tuple(key)] = (set(), set())
            group[0].add(point)
            if point in given:
                group[1].add(point)
        self._groups = groups
        if members is not None:
            return given
        found: Set[int] = set()
        for group, group_members in groups.values():
            engine, ctx = self._kernels(len(group))
            group_members.update(engine.skyline(ctx, list(group)))
            found.update(group_members)
        return found

    def _context(self):
        """The backend's context over every slot, one per slot count:
        extended by the appended rows alone, prepared afresh only after
        a compaction reassigned the slots."""
        data = self.data
        key = (data.compactions, data.num_slots)
        if self._ctx_key != key:
            backend = self.backend
            store = data.columns if backend.vectorized else None
            if self._ctx_key is not None and self._ctx_key[0] == key[0]:
                self._ctx = backend.extend(
                    self._ctx, data.canonical_rows, store
                )
            else:
                self._ctx = backend.prepare(
                    data.canonical_rows, self.table, store=store
                )
            self._ctx_key = key
        return self._ctx

    def _kernels(self, size: int):
        """The engine and context for a step over ``size`` rows."""
        if self._grouped and size <= PYTHON_GROUP_ROWS:
            python = self._python
            return python, python.prepare(self.data.canonical_rows, self.table)
        return self.backend, self._context()

    def _parts(self, point_ids: List[int]):
        """``(group, members, ids)`` per nominal group of a batch (one
        ``(None, members, ids)`` part when ungrouped); ``group`` holds the
        live ids plus those tombstoned but not yet absorbed."""
        if not self._grouped:
            return [(None, self._members, point_ids)]
        assert self._groups is not None
        rows = self.data.canonical_rows
        nominal = self._nominal
        by_key: Dict[tuple, List[int]] = {}
        for point_id in point_ids:
            key = tuple(rows[point_id][d] for d in nominal)
            by_key.setdefault(key, []).append(point_id)
        groups = self._groups
        return [
            (*groups.setdefault(key, (set(), set())), batch)
            for key, batch in by_key.items()
        ]

    def _replace(
        self, members: Set[int], gone: Sequence[int], came: Sequence[int]
    ) -> None:
        """Swap ``gone`` for ``came`` in a part's and the whole member set."""
        if not (gone or came):
            return
        members.difference_update(gone)
        members.update(came)
        if members is not self._members:
            self._members.difference_update(gone)
            self._members.update(came)
        self._ids_cache = None

    def _check_not_compacted(self) -> None:
        """Fail fast when the dataset was compacted under this maintainer.

        Compaction reassigns every id, invalidating the member set and
        the group index; silently absorbing further updates would
        produce wrong skylines with no diagnostic.
        """
        if self.data.compactions != self._compactions:
            raise DatasetError(
                "the dataset was compacted since this maintainer last "
                "synced; call rebuild() to re-attach it"
            )
