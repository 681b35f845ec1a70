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

:class:`IncrementalSkyline` implements exactly that per compiled
preference (one maintainer per template the serving layer keeps hot).
The per-update dominance sweeps run over an incrementally grown rank
matrix when NumPy is available (appends write one row; nothing is ever
re-encoded) and fall back to tuple-at-a-time
:meth:`~repro.core.dominance.RankTable.dominates` otherwise; the
entrant minima of a delete run through the configured engine backend's
skyline kernel on the candidate subset only.  Dominance semantics are
the paper's: on nominal dimensions two distinct *unlisted* values share
the default rank but are **incomparable**, which the key matrix
preserves under vectorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.algorithms.sfs import sfs_skyline
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.engine.columnar import numpy_available
from repro.exceptions import DatasetError
from repro.updates.dataset import DynamicDataset, grow_matrix


@dataclass(frozen=True)
class UpdateEffect:
    """What one maintained update did to the skyline.

    ``entered``/``evicted`` list the member ids that joined/left;
    together they are the *dirty set* downstream structures (the
    IPO-tree refresh, the semantic cache revision) key their own
    incremental work on.
    """

    kind: str
    point_id: int
    entered: Tuple[int, ...]
    evicted: Tuple[int, ...]

    @property
    def changed(self) -> bool:
        """True iff the skyline membership changed at all."""
        return bool(self.entered or self.evicted)

    @property
    def dirty(self) -> Tuple[int, ...]:
        """Ids whose membership flipped (entered + evicted)."""
        return self.entered + self.evicted


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
        self._matrix: Optional[_RankMatrix] = (
            _RankMatrix(self.table, data.schema) if numpy_available() else None
        )
        # ``members`` is the trusted-restore path: a caller re-attaching
        # a maintainer to state it previously exported (the durability
        # layer restoring a checkpoint) passes the persisted member ids
        # and skips the O(n) initial skyline computation.  The ids are
        # taken as-is; the kill-and-recover differential tests verify
        # they equal a fresh rebuild.
        self._members: Set[int] = (
            set(members)
            if members is not None
            else set(
                sfs_skyline(
                    data.canonical_rows, data.ids, self.table,
                    backend=self.backend,
                )
            )
        )
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

        O(|skyline|) dominance tests; evicts the members the new point
        dominates and admits it unless a member dominates it.
        """
        self._check_not_compacted()
        if not self.data.is_live(point_id):
            raise DatasetError(
                f"insert({point_id}): append the row to the dataset first"
            )
        rows = self.data.canonical_rows
        members = self._members
        if self._matrix is not None:
            self._matrix.sync(rows)
            member_list = list(members)
            if self._matrix.any_dominator(point_id, member_list):
                return UpdateEffect("insert", point_id, (), ())
            evicted = self._matrix.dominated_by(point_id, member_list)
        else:
            dominates = self.table.dominates
            p = rows[point_id]
            if any(dominates(rows[m], p) for m in members):
                return UpdateEffect("insert", point_id, (), ())
            evicted = [m for m in members if dominates(p, rows[m])]
        members.difference_update(evicted)
        members.add(point_id)
        self._ids_cache = None
        return UpdateEffect(
            "insert", point_id, (point_id,), tuple(sorted(evicted))
        )

    def delete(self, point_id: int) -> UpdateEffect:
        """Absorb a deletion already tombstoned in the dataset.

        Non-members are O(1).  For a member, only its exclusive
        dominance region is recomputed: the candidates are found with
        one vectorized sweep, and their mutual minima - the new
        entrants - run through the engine backend's skyline kernel on
        that candidate subset alone.
        """
        self._check_not_compacted()
        if self.data.is_live(point_id):
            raise DatasetError(
                f"delete({point_id}): tombstone the row in the dataset first"
            )
        if point_id not in self._members:
            return UpdateEffect("delete", point_id, (), ())
        self._members.discard(point_id)
        self._ids_cache = None
        rows = self.data.canonical_rows
        members = self._members
        # The one-vs-all sweep runs over *all* live ids: a surviving
        # member cannot be dominated by the removed member (both were
        # skyline members, hence mutually non-dominated), so members
        # drop out of `shadowed` by themselves and no O(n) outsider
        # pre-filter is needed.
        live = self.data.ids

        member_list = list(members)
        if self._matrix is not None:
            self._matrix.sync(rows)
            shadowed = self._matrix.dominated_by(point_id, live)
            flags = self._matrix.dominators_exist(shadowed, member_list)
            exclusive = [
                i for i, dominated in zip(shadowed, flags) if not dominated
            ]
        else:
            dominates = self.table.dominates
            removed = rows[point_id]
            member_rows = [rows[m] for m in member_list]
            shadowed = [
                i for i in live if dominates(removed, rows[i])
            ]
            exclusive = [
                i
                for i in shadowed
                if not any(dominates(q, rows[i]) for q in member_rows)
            ]
        entered = self._subset_skyline(exclusive)
        members.update(entered)
        return UpdateEffect(
            "delete", point_id, tuple(sorted(entered)), (point_id,)
        )

    def rebuild(self) -> Tuple[int, ...]:
        """Recompute from scratch and replace the members.

        Serves two roles: the verification oracle of the metamorphic
        tests, and the one legitimate way to re-attach a maintainer
        after :meth:`DynamicDataset.compact` reassigned the id space
        (the stale rank matrix is discarded alongside the members).
        """
        if self._matrix is not None:
            self._matrix = _RankMatrix(self.table, self.data.schema)
        self._members = set(
            sfs_skyline(
                self.data.canonical_rows, self.data.ids, self.table,
                backend=self.backend,
            )
        )
        self._ids_cache = None
        self._compactions = self.data.compactions
        return self.ids

    def _check_not_compacted(self) -> None:
        """Fail fast when the dataset was compacted under this maintainer.

        Compaction reassigns every id, invalidating both the member set
        and the cached rank rows; silently absorbing further updates
        would produce wrong skylines with no diagnostic.
        """
        if self.data.compactions != self._compactions:
            raise DatasetError(
                "the dataset was compacted since this maintainer last "
                "synced; call rebuild() to re-attach it"
            )

    def _subset_skyline(self, candidate_ids: List[int]) -> List[int]:
        """Engine-kernel skyline restricted to ``candidate_ids``.

        The candidates are re-packed into a dense sub-problem so the
        kernel's context covers exactly the subset (no O(n) prepare).
        """
        if len(candidate_ids) <= 1:
            return candidate_ids
        rows = self.data.canonical_rows
        packed = [rows[i] for i in candidate_ids]
        local = sfs_skyline(
            packed, range(len(packed)), self.table, backend=self.backend
        )
        return [candidate_ids[i] for i in local]


class _RankMatrix:
    """Incrementally grown (ranks, keys) matrices for one compiled table.

    The vectorized twin of :meth:`RankTable.dominates` for
    one-against-many sweeps: appends write a single pre-computed rank
    row (amortised-doubling capacity), and each sweep is one NumPy pass
    over the selected ids.  Key ties on nominal dimensions block
    dominance both ways, preserving the unlisted-values-incomparable
    semantics.
    """

    def __init__(self, table: RankTable, schema) -> None:
        import numpy as np

        self._np = np
        self._table = table
        self._nominal = np.asarray(schema.nominal_indices, dtype=np.int64)
        self._size = 0
        self._ranks = np.empty((0, len(schema)), dtype=np.float64)
        self._keys = np.empty((0, len(schema)), dtype=np.int32)

    #: Append blocks at least this long take the vectorized fill; the
    #: steady state (one row per absorbed update) stays on the cheap
    #: tuple path, while a maintainer (re-)attaching to a large dataset
    #: - recovery, first mutation of a big service - syncs in one pass.
    BULK_SYNC_THRESHOLD = 64

    def sync(self, rows: Sequence[tuple]) -> None:
        """Extend the matrices to cover every row of ``rows``."""
        np = self._np
        total = len(rows)
        if total <= self._size:
            return
        self._ranks = grow_matrix(np, self._ranks, self._size, total)
        self._keys = grow_matrix(np, self._keys, self._size, total)
        size = self._size
        if total - size >= self.BULK_SYNC_THRESHOLD:
            # Convert the tuple block once; rank_rows_matrix copies its
            # input (cheap from an ndarray) before remapping in place.
            # A borrowed (mmap-backed) row sequence hands over a matrix
            # slice directly, skipping tuple materialisation entirely.
            block = getattr(rows, "matrix_block", None)
            raw = block(size, total) if block is not None else None
            if raw is None:
                raw = np.asarray(rows[size:total], dtype=np.float64)
            self._ranks[size:total] = self._table.rank_rows_matrix(raw)
            for dim in self._nominal:
                self._keys[size:total, dim] = raw[:, dim].astype(np.int32)
        else:
            rank_vector = self._table.rank_vector
            for i in range(size, total):
                row = rows[i]
                self._ranks[i] = rank_vector(row)
                for dim in self._nominal:
                    self._keys[i, dim] = row[dim]
        self._size = total

    def dominated_by(self, p: int, ids: List[int]) -> List[int]:
        """The subset of ``ids`` dominated by point ``p``."""
        if not ids:
            return []
        np = self._np
        idx = np.asarray(ids, dtype=np.int64)
        ranks, keys = self._ranks, self._keys
        rp, kp = ranks[p], keys[p]
        block_r = ranks[idx]
        mask = (rp <= block_r).all(axis=1) & (rp < block_r).any(axis=1)
        nom = self._nominal
        if nom.size:
            tied = (block_r[:, nom] == rp[nom]) & (
                keys[idx][:, nom] != kp[nom]
            )
            mask &= ~tied.any(axis=1)
        return idx[mask].tolist()

    def any_dominator(self, p: int, ids: List[int]) -> bool:
        """True iff any point of ``ids`` dominates point ``p``."""
        return self.dominators_exist([p], ids)[0] if ids else False

    def dominators_exist(self, targets: List[int], ids: List[int]) -> List[bool]:
        """Per target: does any point of ``ids`` dominate it?

        The ``ids`` block is gathered once and reused across targets -
        the delete path's exclusive-region screen calls this with every
        shadowed candidate against the full member set.
        """
        if not targets:
            return []
        if not ids:
            return [False] * len(targets)
        np = self._np
        idx = np.asarray(ids, dtype=np.int64)
        ranks, keys = self._ranks, self._keys
        block_r = ranks[idx]
        nom = self._nominal
        block_k = keys[idx][:, nom] if nom.size else None
        out = []
        for p in targets:
            rp = ranks[p]
            mask = (block_r <= rp).all(axis=1) & (block_r < rp).any(axis=1)
            if block_k is not None:
                tied = (block_r[:, nom] == rp[nom]) & (
                    block_k != keys[p][nom]
                )
                mask &= ~tied.any(axis=1)
            out.append(bool(mask.any()))
        return out
