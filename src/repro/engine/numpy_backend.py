"""Vectorized NumPy backend: columnar, block-at-a-time dominance kernels.

Representation
--------------
A prepared context derives from the
:class:`~repro.engine.columnar.ColumnarStore` and the query's compiled
:class:`~repro.core.dominance.RankTable` three arrays (the 2-D ones
transposed to ``(m, n)`` so every per-dimension slice is contiguous -
the broadcast axis must be the large one or ufunc loop overhead
dominates at small ``m``):

* ``ranks_t`` - per-dimension ranks.  Universal dimensions keep their
  canonical floats; nominal columns are remapped through the rank table
  with one gather per column (:meth:`RankTable.remap_columns`).
  Smaller is better everywhere.
* ``values_t`` - the store's canonical value matrix (floats / value
  ids), used purely for *equality* tests.
* ``scores`` - per-point rank sums (the SFS score ``f``).

Dominance under the paper's partial-order semantics vectorizes as, per
dimension::

    universal:  not_worse =  rank_a <= rank_b
    nominal:    not_worse = (rank_a < rank_b) | (value_a == value_b)

The nominal value-equality clause preserves Section 4.2's subtlety:
two *distinct* unlisted values share the default rank ``c`` yet are
incomparable, so their rank tie satisfies neither branch and blocks
dominance in both directions.  ``a`` dominates ``b`` iff it is
not-worse on every dimension and strictly better somewhere; given
not-worse everywhere, strictness reduces to "the rows are not
identical", and since identical rows have identical scores, a *score
difference* already certifies it.  Only score-tied pairs (equal rows,
or sums that collide after float rounding) take the exact
all-dimensions equality fallback.

Skyline kernel
--------------
``skyline`` is SFS executed accept-then-sweep: presort by score
(vectorized row sums + one argsort, equal-score runs ordered by rank
vector - see :func:`score_order`), take the best-scored undecided
*batch*, resolve it pairwise in one shot (sound because dominance is
transitive: "dominated by any surviving peer" equals "dominated by any
skyline peer"), then kill everything the accepted points dominate in
the whole remaining set with one staged broadcast sweep.  The sweep
scans accepted points strongest-first in geometrically growing stages,
compacting survivors between stages - the vector analogue of the
reference scan's early exit.  Dominated points mostly die against the
first few accepted points, so total work collapses to roughly
``|strongest-batch| * n`` cells.  All broadcasts are chunked to a fixed
cell budget so memory stays flat.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.base import Backend
from repro.engine.columnar import ColumnarStore, require_numpy

#: Candidate batch size of the skyline scan.  Kept moderate because the
#: intra-batch pairwise resolution is quadratic in the batch size.
_BLOCK = 256

#: First sweep stage size; stages grow geometrically from here.
_FIRST_STAGE = 4

#: Stage growth factor of the staged sweep.
_STAGE_GROWTH = 2

#: Maximum number of cells any broadcast temporary may hold.
_CELL_BUDGET = 1 << 24

#: Only windows longer than this consult the suffix minima of the
#: staged sweep (see ``_dominated_any``): the check costs one ranks
#: pass over the candidates per stage, which short windows (the
#: skyline kernel's <= _BLOCK accept batches) cannot recoup, while
#: long ``dominated_any`` sweeps (bruteforce, D&C merges, the bitset
#: backend's numpy-lanes tier) can.
_SHRINK_MIN_WINDOW = 512

#: Stop checking once fewer window columns than this remain - the tail
#: stages cost less than the check itself.
_SHRINK_MIN_REMAINING = 64


class _NumpyContext:
    """Transposed ranks/values + scores for one (rows, table) pair."""

    __slots__ = ("ranks_t", "values_t", "scores", "nominal", "table", "np")

    def __init__(self, ranks_t, values_t, scores, nominal, table, np) -> None:
        self.ranks_t = ranks_t
        self.values_t = values_t
        self.scores = scores
        self.nominal = nominal  # per-dimension bool flags
        self.table = table
        self.np = np


def nominal_flags(table) -> List[bool]:
    """Per-dimension "is nominal" flags of ``table``'s schema."""
    nominal = [False] * len(table.schema)
    for dim in table.schema.nominal_indices:
        nominal[dim] = True
    return nominal


class _Cols:
    """A column batch: transposed ranks/values plus scores."""

    __slots__ = ("ranks", "values", "scores")

    def __init__(self, ranks, values, scores) -> None:
        self.ranks = ranks
        self.values = values
        self.scores = scores

    @property
    def size(self) -> int:
        return self.ranks.shape[1]

    def take(self, sel) -> "_Cols":
        return _Cols(
            self.ranks[:, sel], self.values[:, sel], self.scores[sel]
        )


def score_order(np, ctx, idx):
    """``idx`` (an id array) in SFS visit order.

    One introsort of the scores, then one pass for equal neighbours.
    Runs of equal scores are re-sorted lexicographically by rank
    vector: a float sum can round a dominator's score up to its
    victim's, but the dominator's rank vector is <= on every dimension
    and < on one, hence lexicographically smaller, so every dominator
    still precedes the points it dominates (the order the SFS scan and
    the D&C merge rely on).  Rows left tied share score and rank vector
    and never dominate each other; they keep their input order, so the
    result equals the python backend's stable sort.
    """
    scores = ctx.scores[idx]
    order = np.argsort(scores)
    sorted_ids = idx[order]
    sorted_scores = scores[order]
    tied = sorted_scores[1:] == sorted_scores[:-1]
    if tied.any():
        starts = np.ones(sorted_ids.size, dtype=bool)
        starts[1:] = ~tied
        in_run = np.zeros(sorted_ids.size, dtype=bool)
        in_run[1:] = tied
        in_run[:-1] |= tied
        pos = np.flatnonzero(in_run)
        sub = sorted_ids[pos]
        # lexsort's last key is the primary one: run id, dimension 0,
        # 1, ..., input position (runs are contiguous, so sorting by
        # run first keeps every row inside its own run's positions).
        num_dims = ctx.ranks_t.shape[0]
        keys = [order[pos]]
        keys.extend(ctx.ranks_t[j, sub] for j in range(num_dims - 1, -1, -1))
        keys.append(np.cumsum(starts)[pos])
        sorted_ids[pos] = sub[np.lexsort(keys)]
    return sorted_ids


def _dominates_matrix(np, nominal, a: _Cols, b: _Cols):
    """Bool matrix ``out[i, k]``: column ``i`` of A dominates column ``k``
    of B.

    Accumulates per-dimension 2-D comparisons (contiguous inner axis),
    chunked over A to the cell budget.  Strictness comes from the score
    shortcut described in the module docstring; score-tied pairs fall
    back to an exact row-equality pass.
    """
    num_dims = a.ranks.shape[0]
    num_a, num_b = a.ranks.shape[1], b.ranks.shape[1]
    out = np.empty((num_a, num_b), dtype=bool)
    step = max(1, _CELL_BUDGET // max(1, num_b))
    for start in range(0, num_a, step):
        chunk = slice(start, min(num_a, start + step))
        not_worse = None
        for j in range(num_dims):
            aj = a.ranks[j, chunk, None]
            bj = b.ranks[j, None, :]
            if nominal[j]:
                nw_j = (aj < bj) | (
                    a.values[j, chunk, None] == b.values[j, None, :]
                )
            else:
                nw_j = aj <= bj
            if not_worse is None:
                not_worse = nw_j
            else:
                not_worse &= nw_j
                # Most pairs are refuted within the first dimensions;
                # once nothing in the chunk can dominate, the remaining
                # per-dimension comparisons are pure waste.
                if not not_worse.any():
                    break
        if not not_worse.any():
            out[chunk] = False
            continue
        score_differs = a.scores[chunk, None] != b.scores[None, :]
        dom = not_worse & score_differs
        ties = not_worse & ~score_differs
        if ties.any():
            # Equal scores under not-worse-everywhere: either identical
            # rows (no dominance) or a strict win whose score gap
            # rounded away - resolve exactly by value equality.
            all_equal = None
            for j in range(num_dims):
                eq_j = a.values[j, chunk, None] == b.values[j, None, :]
                all_equal = eq_j if all_equal is None else (all_equal & eq_j)
            dom |= ties & ~all_equal
        out[chunk] = dom
    return out


def _dominated_any(np, nominal, window: _Cols, candidates: _Cols):
    """Per candidate column: dominated by any window column?

    Scans the window in geometrically growing stages and compacts the
    surviving candidates between stages - the vector analogue of the
    reference scan's early exit.  Window columns arrive strongest
    (lowest score) first, so the first few kill the bulk of the
    candidates and later, wider stages touch only the shrinking
    survivor set instead of re-reading every candidate per window
    column.

    Survivor buffers are managed lazily: the ``dead`` output and the
    position map are allocated once up front, and the column batch is
    only compacted (a fancy-indexing copy of every array) when at
    least half of its remaining columns are settled.  Compacting after
    every stage - the previous behaviour - re-copied the large early
    survivor sets several times; deferring until the copy halves the
    batch bounds total copy work at ~2x the input size while keeping
    the late, wide stages dense.

    Window shrinking: per-dimension *suffix minima* of the window
    ranks bound which candidates the remaining window can still
    dominate.  A candidate strictly below the suffix
    minimum on any dimension has no not-worse window member left there
    (on nominal dimensions value equality would force a rank tie,
    contradicting the strict inequality), so each stage drops such
    candidates from the scan outright instead of re-reading them
    against every remaining window column."""
    num_candidates = candidates.size
    dead = np.zeros(num_candidates, dtype=bool)
    num_window = window.size
    if num_window == 0 or num_candidates == 0:
        return dead
    shrink = num_window > _SHRINK_MIN_WINDOW
    if shrink:
        # suffix_min[:, s] = per-dimension min of window.ranks[:, s:].
        suffix_min = np.minimum.accumulate(
            window.ranks[:, ::-1], axis=1
        )[:, ::-1]
    # Maps current batch columns back to candidate positions; grows
    # stale entries (columns already settled - dead, or immune to the
    # remaining window - but not yet compacted away) that `settled`
    # masks out of each stage's verdict.
    alive = np.arange(num_candidates)
    current = candidates
    settled = np.zeros(num_candidates, dtype=bool)
    alive_count = num_candidates
    done = 0
    stage = _FIRST_STAGE
    while done < num_window and alive_count:
        if shrink and done and num_window - done >= _SHRINK_MIN_REMAINING:
            immune = (
                current.ranks < suffix_min[:, done, None]
            ).any(axis=0) & ~settled
            drops = int(immune.sum())
            if drops:
                settled |= immune
                alive_count -= drops
                if not alive_count:
                    break
                if alive_count * 2 <= current.size:
                    keep = ~settled
                    alive = alive[keep]
                    current = current.take(keep)
                    settled = np.zeros(alive_count, dtype=bool)
        stop = min(num_window, done + stage)
        dom = _dominates_matrix(
            np, nominal, window.take(slice(done, stop)), current
        ).any(axis=0)
        fresh = dom & ~settled
        kills = int(fresh.sum())
        if kills:
            dead[alive[fresh]] = True
            settled |= fresh
            alive_count -= kills
            if alive_count * 2 <= current.size:
                keep = ~settled
                alive = alive[keep]
                current = current.take(keep)
                settled = np.zeros(alive_count, dtype=bool)
        done = stop
        stage *= _STAGE_GROWTH
    return dead


class NumpyBackend(Backend):
    """Columnar vectorized implementation of the kernel contract."""

    name = "numpy"
    vectorized = True

    def __init__(self) -> None:
        self._np = require_numpy()

    # -- context ----------------------------------------------------------
    def prepare(self, rows: Sequence[tuple], table, store=None):
        np = self._np
        if store is None or len(store) != len(rows):
            store = ColumnarStore.from_rows(
                rows,
                table.schema.nominal_indices,
                num_dims=len(table.schema),
            )
        ranks = table.remap_columns(store)
        ranks_t = np.ascontiguousarray(ranks.T)
        scores = ranks.sum(axis=1)
        return _NumpyContext(
            ranks_t, store.matrix_t, scores, nominal_flags(table), table, np
        )

    def _ids_array(self, ctx, ids):
        np = ctx.np
        if isinstance(ids, range):
            return np.arange(
                ids.start, ids.stop, ids.step or 1, dtype=np.int64
            )
        if isinstance(ids, np.ndarray):
            return ids.astype(np.int64, copy=False)
        return np.asarray(
            ids if isinstance(ids, (list, tuple)) else list(ids),
            dtype=np.int64,
        )

    def _cols(self, ctx, idx) -> _Cols:
        """Column batch of an id array (or a single id via ``p:p+1``)."""
        return _Cols(
            ctx.ranks_t[:, idx], ctx.values_t[:, idx], ctx.scores[idx]
        )

    # -- scoring ----------------------------------------------------------
    def scores(self, ctx, ids: Sequence[int]) -> List[float]:
        idx = self._ids_array(ctx, ids)
        return ctx.scores[idx].tolist()

    def score_rows(self, table, rows: Sequence[tuple]) -> List[float]:
        if not len(rows):
            return []
        store = ColumnarStore.from_rows(
            rows, table.schema.nominal_indices, num_dims=len(table.schema)
        )
        return table.remap_columns(store).sum(axis=1).tolist()

    def sort_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        idx = self._ids_array(ctx, ids)
        if idx.size == 0:
            return []
        return score_order(ctx.np, ctx, idx).tolist()

    # -- dominance --------------------------------------------------------
    def dominates_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        idx = self._ids_array(ctx, block)
        if idx.size == 0:
            return []
        dom = _dominates_matrix(
            ctx.np,
            ctx.nominal,
            self._cols(ctx, slice(p, p + 1)),
            self._cols(ctx, idx),
        )
        return dom[0].tolist()

    def dominated_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        idx = self._ids_array(ctx, block)
        if idx.size == 0:
            return []
        dom = _dominates_matrix(
            ctx.np,
            ctx.nominal,
            self._cols(ctx, idx),
            self._cols(ctx, slice(p, p + 1)),
        )
        return dom[:, 0].tolist()

    def any_dominates(self, ctx, p: int, block: Sequence[int]) -> bool:
        idx = self._ids_array(ctx, block)
        if idx.size == 0:
            return False
        dead = _dominated_any(
            ctx.np,
            ctx.nominal,
            self._cols(ctx, idx),
            self._cols(ctx, slice(p, p + 1)),
        )
        return bool(dead[0])

    def dominated_any(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        t_idx = self._ids_array(ctx, targets)
        if t_idx.size == 0:
            return []
        a_idx = self._ids_array(ctx, against)
        dead = _dominated_any(
            ctx.np,
            ctx.nominal,
            self._cols(ctx, a_idx),
            self._cols(ctx, t_idx),
        )
        return dead.tolist()

    def compare_many(self, ctx, p: int, block: Sequence[int]) -> List:
        from repro.core.dominance import (
            DOMINATED,
            DOMINATES,
            EQUAL,
            INCOMPARABLE,
        )

        idx = self._ids_array(ctx, block)
        if idx.size == 0:
            return []
        p_ranks = ctx.ranks_t[:, p : p + 1]
        p_values = ctx.values_t[:, p : p + 1]
        q_ranks = ctx.ranks_t[:, idx]
        q_values = ctx.values_t[:, idx]
        p_lt = p_ranks < q_ranks
        q_lt = q_ranks < p_ranks
        same = p_values == q_values
        p_better = p_lt.any(axis=0)
        q_better = q_lt.any(axis=0)
        # A dimension where neither side is better and the values differ
        # is the incomparable rank tie (distinct unlisted values).
        tie_blocked = (~p_lt & ~q_lt & ~same).any(axis=0)
        incomparable = tie_blocked | (p_better & q_better)
        out = []
        for k in range(idx.size):
            if incomparable[k]:
                out.append(INCOMPARABLE)
            elif p_better[k]:
                out.append(DOMINATES)
            elif q_better[k]:
                out.append(DOMINATED)
            else:
                out.append(EQUAL)
        return out

    # -- composite kernels -------------------------------------------------
    def skyline(self, ctx, ids: Sequence[int]) -> List[int]:
        np = ctx.np
        idx = self._ids_array(ctx, ids)
        if idx.size == 0:
            return []
        sorted_ids = score_order(np, ctx, idx)
        everything = self._cols(ctx, sorted_ids)

        remaining = np.arange(sorted_ids.size)
        out: List[int] = []
        while remaining.size:
            batch_pos = remaining[:_BLOCK]
            rest_pos = remaining[_BLOCK:]
            batch = everything.take(batch_pos)
            if batch_pos.size > 1:
                peer = _dominates_matrix(np, ctx.nominal, batch, batch)
                keep = ~peer.any(axis=0)
                if not keep.all():
                    batch_pos = batch_pos[keep]
                    batch = batch.take(keep)
            out.extend(sorted_ids[batch_pos].tolist())
            if rest_pos.size:
                # Invariant: previous sweeps left `remaining` undominated
                # by every accepted point, so a batch needs only its
                # pairwise resolution; score order ensures later points
                # never dominate earlier ones.
                rest = everything.take(rest_pos)
                dead = _dominated_any(np, ctx.nominal, batch, rest)
                rest_pos = rest_pos[~dead]
            remaining = rest_pos
        return out

    def dim_ranks(self, ctx, ids: Sequence[int], dim: int) -> List[float]:
        idx = self._ids_array(ctx, ids)
        return ctx.ranks_t[dim, idx].tolist()
