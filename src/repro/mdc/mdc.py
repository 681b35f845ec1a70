"""Minimal Disqualifying Conditions (MDCs).

Introduced in Wong, Pei, Fu, Wang, "Mining favorable facets" (KDD'07) -
reference [20] of the paper - and used here, as in Section 3.1 of the
paper, to build IPO-trees without running a skyline computation per
node.

For a skyline point ``p`` under a base order ``R``, a *disqualifying
condition* is a set of extra preference pairs whose addition makes some
point ``q`` dominate ``p``; a *minimal* disqualifying condition (MDC) is
one with no proper disqualifying subset.  Once ``MDC(p)`` is known,
testing whether an arbitrary implicit preference ``R~'`` disqualifies
``p`` reduces to checking whether any MDC is contained in ``P(R~')`` -
no dominance tests against the data needed.

Representation
--------------
Each attribute-value pair a condition needs lives on one nominal
dimension and its "loser" value is always ``p``'s own value there, so a
condition is stored as a compact mapping ``dim_index -> winner_value_id``
(class :class:`DisqualifyingCondition`).  A condition with two different
winners on the same dimension can never arise from a single dominator.

The conditions of a whole template skyline are evaluated through one
:class:`ConditionStore`.  On a vectorized backend it packs the ``C``
conditions into flat arrays: ``owner`` (member index) and two value-id
blocks over the ``k`` nominal dimensions - ``winner`` (``-1`` where the
condition leaves the dimension unconstrained) and ``loser`` (the
owner's own value) - each stored as ``(k, C)`` indices into a lookup
table that a query fills with chain positions.  A query preference
then costs one gather and compare per nominal dimension over all ``C``
conditions, plus one scatter to the owners.  Without NumPy (or on the
python backend) the store keeps the per-member lists and loops over
:meth:`DisqualifyingCondition.satisfied_by`, the reference rule.

Base order
----------
MDCs are computed relative to the *numeric-only* part of the template
(the universal orders).  This is deliberate: IPO-tree nodes *override*
the template's chain on the dimensions they label (a node ``v < *``
with ``v`` different from the template's favourite is not a refinement
of the template), so conditions must not bake the template's nominal
chains in.  The template's chains on unlabelled dimensions re-enter at
*evaluation* time through :meth:`DisqualifyingCondition.satisfied_by`.

Candidate dominators
--------------------
Only points of the base skyline ``SKY(R0)`` need to be considered as
dominators: if any point dominates ``p`` under ``R0 ∪ extra`` then, by
transitivity, some *skyline* point of ``R0 ∪ extra`` does, and
``SKY(R0 ∪ extra) ⊆ SKY(R0)`` by monotonicity (Theorem 1).
"""

from __future__ import annotations

from itertools import compress
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import Schema
from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.exceptions import PreferenceError
from repro.updates.incremental import base_skyline


class DisqualifyingCondition:
    """A set of required winners, one per involved nominal dimension.

    ``winners[d] = u`` means the condition needs the pair
    ``(u, p.D_d)`` - value ``u`` preferred to the owning point's value
    on dimension ``d``.
    """

    __slots__ = ("winners",)

    def __init__(self, winners: Mapping[int, int]) -> None:
        self.winners: Dict[int, int] = dict(winners)

    def __len__(self) -> int:
        return len(self.winners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DisqualifyingCondition):
            return NotImplemented
        return self.winners == other.winners

    def __hash__(self) -> int:
        return hash(frozenset(self.winners.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"D{d}<-{u}" for d, u in sorted(self.winners.items()))
        return f"DisqualifyingCondition({inner})"

    def subsumes(self, other: "DisqualifyingCondition") -> bool:
        """True iff this condition is a (non-strict) subset of ``other``.

        A smaller condition disqualifies under *more* preferences, so a
        subset condition makes its supersets redundant.
        """
        if len(self.winners) > len(other.winners):
            return False
        return all(
            other.winners.get(d) == u for d, u in self.winners.items()
        )

    def satisfied_by(
        self,
        labels: Mapping[int, int],
        template_positions: Mapping[int, Mapping[int, int]],
        loser_values: Sequence[int],
    ) -> bool:
        """Is the condition contained in a node/query preference?

        Parameters
        ----------
        labels:
            ``dim -> value id`` of first-order overrides ("v < *") on
            labelled dimensions.
        template_positions:
            ``dim -> {value id -> 0-based chain position}`` for
            dimensions carrying a template chain (consulted only when
            ``dim`` is unlabelled).
        loser_values:
            The owning point's canonical row (nominal entries are value
            ids); supplies the loser of each required pair.

        A required pair ``(u, w)`` with ``w = loser_values[dim]`` is
        present when either the dimension is labelled ``u`` (first-order
        ``u < *`` beats everything else), or the template chain lists
        ``u`` before ``w`` (or lists ``u`` while ``w`` is unlisted).
        """
        for dim, winner in self.winners.items():
            if dim in labels:
                if labels[dim] != winner:
                    return False
                continue
            positions = template_positions.get(dim)
            if positions is None:
                return False
            pos_u = positions.get(winner)
            if pos_u is None:
                return False
            pos_w = positions.get(loser_values[dim])
            if pos_w is not None and pos_w <= pos_u:
                return False
        return True


def compute_mdcs(
    dataset: Dataset,
    points: Iterable[int],
    *,
    candidates: Optional[Sequence[int]] = None,
    backend=None,
) -> Dict[int, List[DisqualifyingCondition]]:
    """Compute ``MDC(p)`` for each ``p`` in ``points``.

    Parameters
    ----------
    dataset:
        The data.  The base order is the universal (numeric/ordinal)
        order of the schema with *no* nominal chains - see the module
        docstring for why.
    points:
        Ids of the points to compute conditions for.  They must belong
        to the base skyline ``SKY(R0)`` (callers pass template-skyline
        points, which do by Theorem 1); a point outside it would have an
        *empty* disqualifying condition, which is reported as such.
    candidates:
        Ids allowed as dominators.  Defaults to the base skyline
        ``SKY(R0)``, which is sufficient (see module docstring), built
        by :func:`~repro.updates.incremental.base_skyline`.
    backend:
        Execution backend (name, instance or ``None`` for the process
        default).  A vectorized backend screens the candidate set per
        point with columnar comparisons - the numeric not-worse test
        and the strictness test run over whole candidate blocks at
        once - and only the surviving dominator candidates take the
        tuple-at-a-time path that builds their condition.

    Returns
    -------
    dict mapping each point id to its list of minimal conditions.  An
    empty condition (point already dominated under the base order) is
    represented by a :class:`DisqualifyingCondition` with no winners and
    subsumes everything else.
    """
    from repro.engine import resolve_backend

    engine = resolve_backend(backend)
    points = list(points)
    schema = dataset.schema
    rows = dataset.canonical_rows
    store = dataset.columns if engine.vectorized else None
    if candidates is None:
        candidates = base_skyline(dataset, backend=engine)

    nominal_dims = set(schema.nominal_indices)
    numeric_dims = [
        i for i in range(len(schema)) if i not in nominal_dims
    ]

    if engine.vectorized:
        viable_per_point = _viable_candidates_columnar(
            store, points, list(candidates), numeric_dims,
            sorted(nominal_dims),
        )
    else:
        # Every point screens every candidate: read each candidate row
        # once (a row of a store-backed base is decoded per read).
        every = [(q_id, rows[q_id]) for q_id in candidates]

    out: Dict[int, List[DisqualifyingCondition]] = {}
    for p_id in points:
        p = rows[p_id]
        conditions: List[DisqualifyingCondition] = []
        pool = (
            [(q_id, rows[q_id]) for q_id in viable_per_point[p_id]]
            if engine.vectorized
            else every
        )
        for q_id, q in pool:
            if q_id == p_id:
                continue
            condition = _condition_from(q, p, numeric_dims, nominal_dims)
            if condition is not None:
                conditions.append(condition)
        out[p_id] = minimal_conditions(conditions)
    return out


def _viable_candidates_columnar(
    store,
    points: List[int],
    candidates: List[int],
    numeric_dims: Sequence[int],
    nominal_dims: Sequence[int],
) -> Dict[int, List[int]]:
    """Columnar pre-filter: per point, the candidates that can yield a
    condition.

    A candidate ``q`` produces a disqualifying condition against ``p``
    iff ``q`` is not worse than ``p`` on every universal dimension
    (universal orders cannot be overridden) and ``q`` differs from
    ``p`` somewhere (strictly better numerically, or holding a
    different nominal value).  Both tests vectorize over the whole
    candidate block; the surviving set is typically a small fraction,
    which is what makes IPO-tree construction's inner loop cheap.
    """
    from repro.engine.columnar import require_numpy

    np = require_numpy()
    cand = np.asarray(candidates, dtype=np.int64)
    num = np.asarray(numeric_dims, dtype=np.int64)
    nom = np.asarray(nominal_dims, dtype=np.int64)
    block = store.matrix[cand]
    cand_num = block[:, num] if num.size else None
    cand_nom = block[:, nom] if nom.size else None

    out: Dict[int, List[int]] = {}
    ones = np.ones(cand.shape[0], dtype=bool)
    zeros = np.zeros(cand.shape[0], dtype=bool)
    for p_id in points:
        if cand_num is not None:
            p_num = store.matrix[p_id, num]
            not_worse = (cand_num <= p_num).all(axis=1)
            strictly = (cand_num < p_num).any(axis=1)
        else:
            not_worse = ones
            strictly = zeros
        if cand_nom is not None:
            differs = (cand_nom != store.matrix[p_id, nom]).any(axis=1)
        else:
            differs = zeros
        viable = not_worse & (strictly | differs) & (cand != p_id)
        out[p_id] = cand[viable].tolist()
    return out


def _condition_from(
    q: Tuple,
    p: Tuple,
    numeric_dims: Sequence[int],
    nominal_dims: Iterable[int],
) -> Optional[DisqualifyingCondition]:
    """The pairs ``q`` needs added to dominate ``p``; None if impossible."""
    strict = False
    for i in numeric_dims:
        if q[i] > p[i]:
            return None  # universal orders cannot be overridden
        if q[i] < p[i]:
            strict = True
    winners: Dict[int, int] = {}
    for i in nominal_dims:
        if q[i] != p[i]:
            winners[i] = q[i]
            strict = True
    if not strict:
        return None  # q equals p on every dimension
    return DisqualifyingCondition(winners)


def minimal_conditions(
    conditions: Iterable[DisqualifyingCondition],
) -> List[DisqualifyingCondition]:
    """Keep only subset-minimal conditions (and deduplicate).

    Minimality is an optimisation, not a correctness requirement: a
    non-minimal condition is implied by a minimal one, so dropping it
    never changes which preferences disqualify the point.
    """
    unique = list(dict.fromkeys(conditions))
    unique.sort(key=len)
    kept: List[DisqualifyingCondition] = []
    for cond in unique:
        if not any(existing.subsumes(cond) for existing in kept):
            kept.append(cond)
    return kept


def template_positions(
    template: Preference, schema: Schema
) -> Dict[int, Dict[int, int]]:
    """Per-dimension chain positions of a template, keyed by value id.

    ``result[dim][value_id] = 0-based position in the template chain``;
    dimensions with an empty chain are omitted.  This is the second
    argument of :meth:`DisqualifyingCondition.satisfied_by`.
    """
    template.validate_against(schema)
    positions: Dict[int, Dict[int, int]] = {}
    for dim in schema.nominal_indices:
        spec = schema[dim]
        chain = template[spec.name]
        if chain.is_empty:
            continue
        domain = spec.domain
        if domain is None:  # pragma: no cover - nominal specs have domains
            raise PreferenceError(f"nominal {spec.name!r} lacks a domain")
        positions[dim] = {
            domain.index(value): pos for pos, value in enumerate(chain.choices)
        }
    return positions


#: Lookup-table position of a value the preference does not list: later
#: than every chain position, so an unlisted winner never satisfies its
#: pair and an unlisted loser always loses to a listed winner.
_UNLISTED = 1 << 30


class ConditionStore:
    """``MDC(p)`` of every template-skyline member, packed once.

    Built from :func:`compute_mdcs`'s output (``mdcs``, kept as is) for
    the members ``ids``, in the caller's order.  :meth:`survivors` and
    :meth:`disqualified` answer, for one preference given as
    :func:`template_positions`-style ``dim -> {value id -> position}``
    chains, which members some condition disqualifies.

    With ``vectorized`` the conditions are packed into flat arrays (see
    the module docstring's "Representation"); the required pair of a
    dimension holds iff ``lut[winner] < lut[loser]``, where ``lut``
    maps a listed value to its chain position, an unlisted one to a
    large sentinel and an unconstrained winner (``-1``) to ``-1`` - the
    rule of :meth:`DisqualifyingCondition.satisfied_by` in one compare:
    the winner must be listed, and the loser unlisted or later in the
    chain.  Otherwise every query loops over ``satisfied_by`` itself,
    the reference.
    """

    def __init__(
        self,
        mdcs: Mapping[int, List[DisqualifyingCondition]],
        ids: Sequence[int],
        rows,
        schema: Schema,
        *,
        vectorized: bool,
    ) -> None:
        self.ids: Tuple[int, ...] = tuple(ids)
        self.mdcs = mdcs
        self._losers = [rows[point_id] for point_id in self.ids]
        self._np = None
        if vectorized:
            self._pack(schema)

    @classmethod
    def compute(
        cls,
        dataset,
        ids: Sequence[int],
        *,
        candidates: Optional[Sequence[int]] = None,
        backend=None,
    ) -> "ConditionStore":
        """Run :func:`compute_mdcs` for ``ids`` and pack the result.

        The arrays are built when the backend is vectorized - the same
        test :func:`compute_mdcs` uses for its columnar screen.
        """
        from repro.engine import resolve_backend

        engine = resolve_backend(backend)
        mdcs = compute_mdcs(
            dataset, ids, candidates=candidates, backend=engine
        )
        return cls(
            mdcs, ids, dataset.canonical_rows, dataset.schema,
            vectorized=engine.vectorized,
        )

    def _pack(self, schema: Schema) -> None:
        from repro.engine.columnar import require_numpy

        np = require_numpy()
        dims = schema.nominal_indices
        owner: List[int] = []
        winner: List[List[int]] = []
        loser: List[List[int]] = []
        for index, (point_id, row) in enumerate(zip(self.ids, self._losers)):
            own = [row[dim] for dim in dims]
            for condition in self.mdcs[point_id]:
                owner.append(index)
                winner.append([condition.winners.get(dim, -1) for dim in dims])
                loser.append(own)
        shape = (len(owner), len(dims))
        winner_ids = np.asarray(winner, dtype=np.intp).reshape(shape).T
        loser_ids = np.asarray(loser, dtype=np.intp).reshape(shape).T
        # A query's lookup table is one segment per nominal dimension:
        # a slot per domain value, then one holding -1, which is where
        # an unconstrained winner (-1) points.  Both blocks are stored
        # as (k, C) indices into that table.
        self._cards = [len(schema[dim].domain) for dim in dims]  # type: ignore[arg-type]
        cards = np.asarray(self._cards, dtype=np.intp)
        offsets = np.cumsum(cards + 1) - (cards + 1)
        unconstrained = (offsets + cards)[:, None]
        self._winner_at = np.ascontiguousarray(
            np.where(winner_ids < 0, unconstrained, winner_ids + offsets[:, None])
        )
        self._loser_at = np.ascontiguousarray(loser_ids + offsets[:, None])
        self._owner = np.asarray(owner, dtype=np.intp)
        self._dims = dims
        self._np = np

    def _hits(self, positions: Mapping[int, Mapping[int, int]]):
        """Per member (in ``ids`` order): does some condition hold?"""
        np = self._np
        if np is None:
            return [
                any(
                    condition.satisfied_by({}, positions, row)
                    for condition in self.mdcs[point_id]
                )
                for point_id, row in zip(self.ids, self._losers)
            ]
        lut: List[int] = []
        for dim, card in zip(self._dims, self._cards):
            segment = [_UNLISTED] * card + [-1]
            for value, position in positions.get(dim, {}).items():
                segment[value] = position
            lut += segment
        table = np.asarray(lut, dtype=np.int32)
        holds = (table[self._winner_at] < table[self._loser_at]).all(axis=0)
        hits = np.zeros(len(self.ids), dtype=bool)
        hits[self._owner[holds]] = True
        return hits

    def _select(self, positions, disqualified: bool) -> List[int]:
        hits = self._hits(positions)
        if self._np is None:
            keep = [hit == disqualified for hit in hits]
        else:
            keep = (hits if disqualified else ~hits).tolist()
        # The members' own id objects, not new ints per answer: callers
        # retain answers (the result cache, tree nodes).
        return list(compress(self.ids, keep))

    def disqualified(
        self, positions: Mapping[int, Mapping[int, int]]
    ) -> List[int]:
        """Ids of the members some condition disqualifies, in ``ids`` order."""
        return self._select(positions, True)

    def survivors(
        self, positions: Mapping[int, Mapping[int, int]]
    ) -> List[int]:
        """Ids of the members no condition disqualifies, in ``ids`` order."""
        return self._select(positions, False)
