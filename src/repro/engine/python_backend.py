"""The pure-Python reference backend.

Tuple-at-a-time kernels delegating straight to
:class:`~repro.core.dominance.RankTable`.  This backend defines the
semantics: the vectorized backends are tested for observational
equivalence against it.  It has no dependencies and is the automatic
fallback when NumPy is absent.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.dominance import score_sorted
from repro.engine.base import Backend


class _PythonContext:
    """Just the inputs; the reference kernels need no preprocessing."""

    __slots__ = ("rows", "table")

    def __init__(self, rows, table) -> None:
        self.rows = rows
        self.table = table


class PythonBackend(Backend):
    """Reference implementation of the kernel contract."""

    name = "python"
    vectorized = False

    def prepare(self, rows: Sequence[tuple], table, store=None):
        return _PythonContext(rows, table)

    # -- scoring ----------------------------------------------------------
    def score_rows(self, table, rows: Sequence[tuple]) -> List[float]:
        score = table.score
        return [score(row) for row in rows]

    def sort_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        score = ctx.table.score
        rank_vector = ctx.table.rank_vector
        rows = ctx.rows
        return [
            i for _score, i in score_sorted(
                ((score(rows[i]), i) for i in ids),
                lambda i: rank_vector(rows[i]),
            )
        ]

    # -- dominance --------------------------------------------------------
    def dominates_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        dominates = ctx.table.dominates
        rows = ctx.rows
        row_p = rows[p]
        return [dominates(row_p, rows[q]) for q in block]

    def any_dominates(self, ctx, p: int, block: Sequence[int]) -> bool:
        dominates = ctx.table.dominates
        rows = ctx.rows
        row_p = rows[p]
        return any(dominates(rows[q], row_p) for q in block)

    def dominated_any(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        dominates = ctx.table.dominates
        rows = ctx.rows
        against_rows = [rows[a] for a in against]
        out = []
        for t in targets:
            row_t = rows[t]
            out.append(any(dominates(q, row_t) for q in against_rows))
        return out

    # -- composite kernels -------------------------------------------------
    def skyline(self, ctx, ids: Sequence[int]) -> List[int]:
        """Sort-first skyline, exactly as :mod:`repro.algorithms.sfs`.

        Implemented here (rather than imported) to keep the engine free
        of algorithm-layer imports; the logic is the canonical SFS scan:
        presorted points stream past a window of accepted rows.
        """
        rows = ctx.rows
        dominates = ctx.table.dominates
        out: List[int] = []
        window: List[tuple] = []
        for i in self.sort_by_score(ctx, ids):
            p = rows[i]
            if any(dominates(q, p) for q in window):
                continue
            window.append(p)
            out.append(i)
        return out

    def dim_ranks(self, ctx, ids: Sequence[int], dim: int) -> List[float]:
        rows = ctx.rows
        table = ctx.table
        if dim in table.schema.nominal_indices:
            rank = table.nominal_rank
            return [float(rank(dim, rows[i][dim])) for i in ids]
        return [rows[i][dim] for i in ids]
