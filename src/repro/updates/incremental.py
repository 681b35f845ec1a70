"""Incremental skyline maintenance under inserts and deletes.

A skyline over a churning table can be kept current far cheaper than it
can be recomputed, because single-row updates have *local* effects:

* **insert** ``p``: if any current member dominates ``p``, the skyline
  is unchanged.  Otherwise ``p`` joins and evicts exactly the members
  it dominates.  Nothing outside the current skyline can change - a
  non-member was dominated by some member ``m``; if ``p`` evicted
  ``m``, then ``p`` dominates ``m`` dominates it (transitivity), so it
  stays out.
* **delete** of a non-member: no effect (it disqualified nothing).
* **delete** of a member ``p``: the only possible entrants are points
  of ``p``'s **exclusive dominance region** - live points dominated by
  ``p`` and by *no other* member.  Among those candidates, the new
  entrants are exactly their mutual minima: any live dominator of a
  candidate is either another candidate or ``p`` itself (a non-member
  dominator ``q`` is dominated by some member ``m``; ``m`` dominates
  the candidate too, so exclusivity forces ``m = p``, putting ``q`` in
  the region as well).
* **groups under the base order** ``R0``: when the preference lists no
  value on any nominal dimension, every nominal value takes its
  dimension's default rank, and two distinct values sharing a rank are
  incomparable, which blocks dominance in both directions.  So ``p``
  can dominate ``q`` only if both carry the same value on every nominal
  dimension: dominance never crosses *groups* (rows with equal nominal
  tuples), and ``SKY(R0)`` is the union of the per-group skylines
  (numeric skylines, as the nominal values are equal inside a group).
  Hence an inserted row can be dominated by, and evict, only members of
  its own group; a deleted member's exclusive region lies in its own
  group, and only that group's members can dominate a row of it.

:class:`IncrementalSkyline` implements exactly that per compiled
preference (one maintainer per template the serving layer keeps hot),
and its only dominance code is the engine backend's kernels: an insert
is ``any_dominates`` plus ``dominates_mask`` (:func:`admit`, which the
serving layer's cache patcher shares); a member delete is
``dominates_mask`` over the live rows, ``dominated_any`` of the
shadowed rows against the remaining members, and the backend's
``skyline`` over the exclusive candidates.  They run on one context
over every slot, cached on the dataset's ``(compactions, num_slots)``:
a tombstone changes no slot, so a delete batch reuses its insert
batch's context, and an appended batch grows it by its own rows
(``backend.extend``); only a compaction costs a fresh
``backend.prepare``.  A maintainer whose table lists no nominal value
keys its live rows and its members by nominal tuple and runs the same
steps over the row's group alone; it computes its initial skyline the
same way, as the union of the per-group skylines, building the group
index in that pass (:func:`base_skyline` is this build for ``R0``, the
library's one builder of ``SKY(R0)``).  A step that touches at most
:data:`PYTHON_GROUP_ROWS` rows (the group's members for an insert, its
rows for a delete) runs on the python reference kernels, whose prepare
is free; a larger one runs on the configured backend's cached context,
restricted to the group's ids (a schema without nominal dimensions
has one group of every row, and small domains give large groups); the
initial build picks per group by the group's size.
Dominance semantics are the paper's: on nominal dimensions two
distinct *unlisted* values share the default rank but are
**incomparable**.
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
    """What one maintained update did to the skyline.

    ``entered``/``evicted`` list the member ids that joined/left; the
    serving layer reports them per batch and rebuilds its indexes only
    when some skyline changed.
    """

    kind: str
    point_id: int
    entered: Tuple[int, ...]
    evicted: Tuple[int, ...]

    @property
    def changed(self) -> bool:
        """True iff the skyline membership changed at all."""
        return bool(self.entered or self.evicted)


def admit(
    backend, ctx, members: Sequence[int], point_id: int
) -> Optional[List[int]]:
    """The insert rule: the members ``point_id`` evicts, or ``None``.

    ``None`` means some member dominates ``point_id``, so the skyline
    is unchanged; otherwise the point joins and evicts exactly the
    returned members.  ``ctx`` is ``backend``'s context over rows that
    include the point and every member.
    """
    if backend.any_dominates(ctx, point_id, members):
        return None
    mask = backend.dominates_mask(ctx, point_id, members)
    return [m for m, hit in zip(members, mask) if hit]


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
    >>> sky.insert(pid).evicted       # (9, "T") evicts (10, "T")
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
    def insert(self, point_id: int) -> UpdateEffect:
        """Absorb a row already appended to the dataset.

        Tests the new point against the members (of its group, under
        the base order); evicts the members it dominates and admits it
        unless a member dominates it.
        """
        self._check_not_compacted()
        if not self.data.is_live(point_id):
            raise DatasetError(
                f"insert({point_id}): append the row to the dataset first"
            )
        if self._grouped:
            group, group_members = self._group_of(point_id)
            group.add(point_id)
            members = list(group_members)
            engine, ctx = self._kernels(len(members))
        else:
            members = list(self._members)
            engine, ctx = self.backend, self._context()
        evicted = admit(engine, ctx, members, point_id)
        if evicted is None:
            return UpdateEffect("insert", point_id, (), ())
        self._members.difference_update(evicted)
        self._members.add(point_id)
        if self._grouped:
            group_members.difference_update(evicted)
            group_members.add(point_id)
        self._ids_cache = None
        return UpdateEffect(
            "insert", point_id, (point_id,), tuple(sorted(evicted))
        )

    def delete(self, point_id: int) -> UpdateEffect:
        """Absorb a deletion already tombstoned in the dataset.

        Non-members are O(1) (plus dropping the row from its group).
        For a member, only its exclusive dominance region is
        recomputed: the rows it dominates, screened against the other
        members, and the mutual minima of the survivors enter.
        """
        self._check_not_compacted()
        if self.data.is_live(point_id):
            raise DatasetError(
                f"delete({point_id}): tombstone the row in the dataset first"
            )
        if self._grouped:
            group, group_members = self._group_of(point_id)
            group.discard(point_id)
        if point_id not in self._members:
            return UpdateEffect("delete", point_id, (), ())
        self._members.discard(point_id)
        self._ids_cache = None
        # The sweep runs over every live row (of the group): a
        # surviving member cannot be dominated by the removed member
        # (both were skyline members, hence mutually non-dominated), so
        # members drop out of `shadowed` by themselves.  A group still
        # holds the rows tombstoned in this batch whose own delete is
        # pending; they screen as members but never enter.
        if self._grouped:
            group_members.discard(point_id)
            block: Sequence[int] = list(group)
            members = list(group_members)
            engine, ctx = self._kernels(len(block))
        else:
            block = self.data.ids
            members = list(self._members)
            engine, ctx = self.backend, self._context()
        mask = engine.dominates_mask(ctx, point_id, block)
        is_live = self.data.is_live
        shadowed = [i for i, hit in zip(block, mask) if hit and is_live(i)]
        screened = engine.dominated_any(ctx, shadowed, members)
        exclusive = [i for i, hit in zip(shadowed, screened) if not hit]
        entered = engine.skyline(ctx, exclusive) if exclusive else []
        self._members.update(entered)
        if self._grouped:
            group_members.update(entered)
        return UpdateEffect(
            "delete", point_id, tuple(sorted(entered)), (point_id,)
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
        """The engine and context for a grouped step over ``size`` rows."""
        if size <= PYTHON_GROUP_ROWS:
            python = self._python
            return python, python.prepare(self.data.canonical_rows, self.table)
        return self.backend, self._context()

    def _group_of(self, point_id: int) -> Tuple[Set[int], Set[int]]:
        """The ``(group, members)`` ids sharing ``point_id``'s nominal tuple.

        ``group`` holds the live ids plus the ones tombstoned since the
        maintainer last absorbed a delete of them (a member tombstoned
        in the current batch still screens until its own delete is
        absorbed).
        """
        assert self._groups is not None
        row = self.data.canonical_rows[point_id]
        key = tuple(row[d] for d in self._nominal)
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = (set(), set())
        return group

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
