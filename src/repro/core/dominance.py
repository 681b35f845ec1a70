"""The dominance engine: compiled rank tables and dominance tests.

This is the hot path of the whole library.  A user preference (merged
over its template) is compiled once into a :class:`RankTable`; dominance
between two canonical rows is then a single pass over the dimensions
with integer/float comparisons only.

Semantics (Section 2 + Definition 2 of the paper)
-------------------------------------------------
For a nominal dimension with domain size ``c`` and implicit preference
``v1 < ... < vx < *`` the rank of ``vi`` is ``i`` and the rank of every
unlisted value is the default ``c`` (Section 4.2).  Then for values
``u, w`` of that dimension::

    u  preferred to  w   iff  rank(u) < rank(w)
    u  equal to      w   iff  u == w
    otherwise            incomparable

Note the third case: two *distinct* unlisted values share the default
rank but are **incomparable** - neither may count as "at least as good"
in a dominance test.  This exactly realises the partial order
``P(R~i) = {(vi, vj) | i < j, i in [1, x], j in [1, k]}``.

Universally ordered dimensions use the canonical float directly (smaller
is better; see :mod:`repro.core.dataset`), where equal floats mean equal
values, so the rank-tie subtlety does not arise.

Point ``p`` dominates ``q`` iff ``p`` is at least as good on every
dimension and strictly better on at least one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.attributes import AttributeKind, Schema
from repro.core.dataset import CanonicalRow
from repro.core.preferences import Preference

# compare() outcomes
DOMINATES = 1
DOMINATED = -1
EQUAL = 0
INCOMPARABLE = None


class RankTable:
    """A preference compiled against a schema for fast dominance tests.

    Use :meth:`compile` rather than the constructor.  The table stores,
    per dimension, either ``None`` (universally ordered: compare the
    canonical floats) or a list mapping nominal value ids to ranks.

    Instances are immutable and reusable across any datasets sharing the
    schema (value ids are schema-derived).
    """

    __slots__ = (
        "schema",
        "preference",
        "_dims",
        "_listed_counts",
    )

    def __init__(
        self,
        schema: Schema,
        preference: Preference,
        dims: Tuple[Optional[List[int]], ...],
        listed_counts: Tuple[int, ...],
    ) -> None:
        self.schema = schema
        self.preference = preference
        self._dims = dims
        self._listed_counts = listed_counts

    @classmethod
    def compile(
        cls,
        schema: Schema,
        preference: Optional[Preference] = None,
        template: Optional[Preference] = None,
    ) -> "RankTable":
        """Compile ``preference`` (merged over ``template``) for ``schema``.

        ``preference=None`` means the empty preference.  When a template
        is given, the preference must refine it per dimension; dimensions
        the preference leaves empty inherit the template's chain
        (see :meth:`Preference.merged_over`).
        """
        pref = preference if preference is not None else Preference.empty()
        if template is not None:
            pref = pref.merged_over(template)
        pref.validate_against(schema)

        dims: List[Optional[List[int]]] = []
        listed: List[int] = []
        for spec in schema:
            if spec.kind is AttributeKind.NOMINAL:
                per_dim = pref[spec.name]
                rank_map = per_dim.rank_map(spec.domain)  # type: ignore[arg-type]
                dims.append([rank_map[v] for v in spec.domain])  # type: ignore[union-attr]
                listed.append(per_dim.order)
            else:
                dims.append(None)
                listed.append(0)
        return cls(schema, pref, tuple(dims), tuple(listed))

    # -- dominance -------------------------------------------------------------
    def dominates(self, p: CanonicalRow, q: CanonicalRow) -> bool:
        """True iff canonical row ``p`` dominates canonical row ``q``.

        Two-phase scan: the first loop runs until a strictly better
        dimension is found (or a worse/incomparable one refutes), the
        second only needs to refute - it no longer tracks strictness,
        so the common case (an early strict win followed by a long
        not-worse tail) does one comparison less per remaining
        dimension.
        """
        pairs = zip(self._dims, p, q)
        for table, a, b in pairs:
            if table is None:
                if a < b:  # type: ignore[operator]
                    break
                if a > b:  # type: ignore[operator]
                    return False
            else:
                ra = table[a]  # type: ignore[index]
                rb = table[b]  # type: ignore[index]
                if ra < rb:
                    break
                if ra > rb:
                    return False
                if a != b:
                    # Equal default ranks but distinct values: incomparable,
                    # which blocks dominance in both directions.
                    return False
        else:
            return False  # not worse anywhere, but nowhere strictly better
        for table, a, b in pairs:  # resumes after the strict dimension
            if table is None:
                if a > b:  # type: ignore[operator]
                    return False
            else:
                ra = table[a]  # type: ignore[index]
                rb = table[b]  # type: ignore[index]
                if ra > rb:
                    return False
                if ra == rb and a != b:
                    return False
        return True

    def compare(self, p: CanonicalRow, q: CanonicalRow):
        """Full four-way comparison.

        Returns :data:`DOMINATES` (p dominates q), :data:`DOMINATED`
        (q dominates p), :data:`EQUAL` (identical canonical rows) or
        :data:`INCOMPARABLE`.
        """
        p_better = False
        q_better = False
        for table, a, b in zip(self._dims, p, q):
            if table is None:
                if a < b:  # type: ignore[operator]
                    p_better = True
                elif a > b:  # type: ignore[operator]
                    q_better = True
            else:
                ra = table[a]  # type: ignore[index]
                rb = table[b]  # type: ignore[index]
                if ra < rb:
                    p_better = True
                elif ra > rb:
                    q_better = True
                elif a != b:
                    return INCOMPARABLE
            if p_better and q_better:
                return INCOMPARABLE
        if p_better:
            return DOMINATES
        if q_better:
            return DOMINATED
        return EQUAL

    # -- scoring (Section 4.2) ------------------------------------------------
    def score(self, p: CanonicalRow) -> float:
        """The SFS preference score ``f(p) = sum_i r(p.Di)``.

        Monotone with dominance: if ``p`` dominates ``q`` then every
        per-dimension term of ``p`` is <= the corresponding term of ``q``
        (preferred nominal values have strictly smaller ranks; canonical
        floats are already smaller-is-better) and at least one term is
        strictly smaller, hence ``f(p) < f(q)`` in exact arithmetic.
        The float sum only keeps ``f(p) <= f(q)`` (rounding is monotone
        but can absorb the strict gap, e.g. ``2**53 + 1.0 == 2**53``),
        so score presorts break ties by rank vector: see
        :func:`score_sorted`.
        """
        total = 0.0
        for table, a in zip(self._dims, p):
            if table is None:
                total += a  # type: ignore[operator]
            else:
                total += table[a]  # type: ignore[index]
        return total

    def rank_vector(self, p: CanonicalRow) -> Tuple[float, ...]:
        """Per-dimension ranks of ``p`` (floats and nominal ranks mixed)."""
        return tuple(
            a if table is None else table[a]  # type: ignore[index]
            for table, a in zip(self._dims, p)
        )

    def nominal_lut(self, dim: int) -> List[int]:
        """Value id -> rank list of nominal dimension ``dim`` (read only)."""
        table = self._dims[dim]
        if table is None:
            raise ValueError(f"dimension {dim} is not nominal")
        return table

    def nominal_rank(self, dim: int, value_id: int) -> int:
        """Rank of one nominal value id on dimension ``dim``."""
        table = self._dims[dim]
        if table is None:
            raise ValueError(f"dimension {dim} is not nominal")
        return table[value_id]

    def listed_count(self, dim: int) -> int:
        """``x`` (the preference order) on dimension ``dim``."""
        return self._listed_counts[dim]


def minima(
    rows: Sequence[CanonicalRow],
    ids: Iterable[int],
    table: RankTable,
) -> List[int]:
    """Reference skyline: ids of points not dominated by any other point.

    Quadratic scan used as ground truth in tests and as the innermost
    primitive of the divide & conquer merge.  Duplicate canonical rows
    are all kept (none dominates its duplicate).
    """
    id_list = list(ids)
    out: List[int] = []
    dominates = table.dominates
    for i in id_list:
        p = rows[i]
        if any(dominates(rows[j], p) for j in id_list if j != i):
            continue
        out.append(i)
    return out


def score_sorted(
    scored: Iterable[Tuple[float, int]],
    rank_of: Callable[[int], Sequence[float]],
) -> List[Tuple[float, int]]:
    """``(score, id)`` pairs in SFS visit order.

    Ascending score, equal-score runs ordered lexicographically by the
    rank vector ``rank_of(id)``, remaining ties in input order.  If
    ``a`` dominates ``b``, ``a``'s rank vector is <= ``b``'s on every
    dimension and < on one, so it is lexicographically smaller and a
    score tie left by float rounding (see :meth:`RankTable.score`)
    still puts the dominator first.  Ties are detected with one pass
    over the sorted scores, so the common tie-free input pays no rank
    vectors.
    """
    out = sorted(scored, key=itemgetter(0))
    if any(a[0] == b[0] for a, b in zip(out, out[1:])):
        out.sort(key=lambda pair: (pair[0], rank_of(pair[1])))
    return out
