"""Bit-parallel packed dominance kernels: the ``"bitset"`` backend.

The numpy backend's accept-then-sweep still compares ranks
column-by-column per candidate block; this backend packs the accepted
window into machine words so one bitwise AND over the dimensions
evaluates 64 dominance comparisons at once, and bounds each candidate's
comparison window with per-dimension running minima instead of
rescanning the whole accepted set.

Packed layout
-------------
Every dimension's rank column is quantized into at most
:data:`NUM_BUCKETS` monotone *bucket* levels (``rank_a <= rank_b``
implies ``bucket_a <= bucket_b``, and a strictly lower bucket implies
a strictly lower rank).  The packing is split by what it depends on:

* **per store** - numeric ranks are the store's canonical floats, the
  same for every preference.  Their quantile cuts (over a strided rank
  sample) and ``uint8`` bucket rows are computed once per columnar
  store and reused while the store object lives (an ``is`` check: a
  store is immutable, every dataset version hands out a new one).  The
  same record keeps a contiguous transposed copy of the nominal value
  ids (``store.keys``).
* **per query** - each nominal column is gathered straight into the
  ``(d, n)`` rank and bucket matrices through two value-id lookup
  tables of the compiled preference: rank (``float64``) and bucket
  (``uint8``).  A nominal column takes at most ``listed + 1`` distinct
  ranks, so when its domain has at most :data:`NUM_BUCKETS` of them
  the bucket table is *exact* (bucket = position among the distinct
  ranks, so equal buckets mean equal ranks and the refine only has
  the unlisted-value tie left to reject there); longer preferences
  fall back to quantile cuts over the column's ranks.  There is no whole-matrix
  rank remap and no transpose per query, and nothing whole-context is
  cached: the serving layer compiles a fresh ``RankTable`` per query,
  so a context cache keyed on the table would never hit.

The sweep then maintains, per dimension ``j``, a **threshold bitmap**
over the accepted window::

    tb[j][k]   (a row of uint64 words / one python int)
    bit t set  iff  accepted point t has bucket_j <= k

Accepted points are numbered in acceptance (= visit) order, strongest
first.  For a candidate ``c`` the word-wise AND

    m = tb[0][bucket_0(c)] & tb[1][bucket_1(c)] & ... & tb[d-1][...]

is a **superset of c's dominators**: any dominator is not-worse on
every dimension, not-worse implies ``rank <= rank`` (on nominal
dimensions via the value-equality clause), and rank order implies
bucket order.  ``m == 0`` proves the candidate undominated with ``d``
word-ops per 64 accepted points - no exact comparison at all.  Nonzero
words are *refined* exactly, lowest bit first (the strongest accepts
kill fastest), with the same semantics as every other backend: the
nominal rank-tie/value-inequality clause blocks dominance, and
strictness falls back to row equality on score ties.

Visit order
-----------
Candidates are visited in ascending score, with equal-score runs
ordered lexicographically by rank vector
(:func:`~repro.engine.numpy_backend.score_order`; an unstable introsort
plus one tie pass).  Claim: if ``a`` dominates ``b``, ``a`` is visited
first.  Proof: dominance gives ``rank_j(a) <= rank_j(b)`` on every
dimension (universal: the canonical float is smaller-or-equal;
nominal: strictly preferred means a smaller rank, and equal values
share one) and ``rank_j(a) < rank_j(b)`` on some dimension.  The score
is the same float sum over every row, and IEEE addition is monotone in
each operand, so ``score(a) <= score(b)``.  If the scores differ, ``a``
sorts first.  If rounding made them equal (``2**53 + 1.0 == 2**53``),
the tie pass compares rank vectors; ``a``'s is <= on every dimension
and < on one, so it is lexicographically smaller and ``a`` again sorts
first.  Rows with equal score *and* equal rank vector keep their input
order (the tie pass repairs the introsort's instability), and they
never dominate each other anyway: dominance needs a strictly smaller
rank somewhere.  Hence every accepted point is final when accepted, as
the accept-then-sweep loop requires.

Window shrinking
----------------
Three bounds keep the sweep from rescanning the whole accepted set:

* **running minima** - a candidate strictly below the window's running
  per-dimension minimum rank on *any* dimension cannot be dominated at
  all (nothing is not-worse there) and is accepted without touching
  the bitmaps;
* **block minima** - in the accept-then-sweep loop, remaining
  candidates strictly below the freshly accepted block's minimum on
  some dimension skip that block's sweep entirely;
* **per-bucket last words** - ``last_word[j][k]`` records the highest
  word holding an accept with ``bucket_j <= k``; the scan window of a
  candidate ends at ``min_j last_word[j][bucket_j(c)]``, so membership
  sweeps stop as soon as no earlier accept can still dominate.

Tiers
-----
* With NumPy, the bitmaps are ``uint64`` lanes and the sweep runs
  block-at-a-time; an optional compiled C kernel
  (:mod:`repro.engine._bitset_kernel`, auto-detected, gated by
  ``REPRO_BITSET_KERNEL``) fuses the AND + refine loop with
  per-candidate early exit.
* Without NumPy the same structures fall back to arbitrary-precision
  python ints - one ``&`` per dimension still evaluates the whole
  window - so the backend is *always available* and observationally
  equivalent on every tier (enforced by the differential oracle).
  This tier quantizes per call into :data:`PY_NUM_BUCKETS` quantile
  levels; the per-store split above is the NumPy tier's.

Primitive kernels delegate to the numpy / python reference backends;
only the composite ``skyline`` and the batched ``dominated_any``
membership sweep (the bruteforce and D&C primitive) run on the packed
representation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine._bitset_kernel import load_kernel
from repro.engine.base import Backend
from repro.engine.columnar import (
    ColumnarStore,
    numpy_available,
    require_numpy,
)
from repro.engine.numpy_backend import (
    NumpyBackend,
    _Cols,
    _dominated_any,
    _dominates_matrix,
    nominal_flags,
    score_order,
)
from repro.engine.python_backend import PythonBackend
from repro.exceptions import EngineError

#: Bucket levels per dimension of the numpy-packed tier.  64 quantile
#: levels keep bucket false positives rare while the threshold bitmap
#: (``d x 64 x words``) stays a few hundred KB even at 1M rows.
NUM_BUCKETS = 64

#: Bucket levels of the python-int tier (accepting a point costs
#: ``O(levels)`` int ORs per dimension, so the fallback favours fewer).
PY_NUM_BUCKETS = 16

#: Rank-sample size for the quantile cuts.
_SAMPLE = 4096

#: Accept-block size of the packed accept-then-sweep (pairwise
#: resolution within a block is quadratic, as in the numpy backend).
_BLOCK = 256

#: First stage width (in words) of the staged membership sweep; stages
#: grow geometrically, mirroring the numpy backend's staged scan.
_FIRST_STAGE_WORDS = 1


# ---------------------------------------------------------------------------
# numpy-packed tier
# ---------------------------------------------------------------------------


def _quantile_cuts(np, column):
    """At most ``NUM_BUCKETS - 1`` monotone cuts from a strided sample."""
    sample = np.sort(column[:: max(1, column.shape[0] // _SAMPLE)])
    if not sample.size:
        return np.empty(0, dtype=np.float64)
    positions = (np.arange(1, NUM_BUCKETS) * sample.size) // NUM_BUCKETS
    return np.unique(sample[positions])


class _StorePack:
    """The preference-independent half of the packing, for one store.

    ``numeric_buckets`` holds the ``uint8`` bucket rows of the numeric
    dimensions (their ranks are the store's canonical floats, so the
    cuts never change between queries); ``keys_t`` the nominal value
    ids, transposed and contiguous, ready for the per-query gathers.
    """

    __slots__ = ("store", "numeric", "numeric_buckets", "nominal", "keys_t")

    def __init__(self, np, store) -> None:
        nominal = tuple(sorted(store.nominal_dims))
        self.store = store
        self.nominal = nominal
        self.numeric = tuple(
            j for j in range(store.num_dims) if j not in nominal
        )
        values_t = store.matrix_t
        self.numeric_buckets = np.empty(
            (len(self.numeric), len(store)), dtype=np.uint8
        )
        for k, j in enumerate(self.numeric):
            self.numeric_buckets[k] = np.searchsorted(
                _quantile_cuts(np, values_t[j]), values_t[j], side="right"
            )
        self.keys_t = np.ascontiguousarray(
            store.keys[:, list(nominal)].T, dtype=np.intp
        )


def _nominal_bucket_lut(np, rank_lut, ranks):
    """Value id -> bucket of one nominal dimension.

    Exact levels (position among the domain's distinct ranks) when
    there are at most :data:`NUM_BUCKETS` of them, else quantile cuts
    over the column's gathered ``ranks``.
    """
    levels = np.unique(rank_lut)
    if levels.size <= NUM_BUCKETS:
        return np.searchsorted(levels, rank_lut).astype(np.uint8)
    return np.searchsorted(
        _quantile_cuts(np, ranks), rank_lut, side="right"
    ).astype(np.uint8)


class _BitsetContext:
    """A numpy context (duck-typing ``_NumpyContext``) plus packing.

    Carries the transposed rank/value matrices, scores and nominal
    flags exactly as the numpy backend's context does - the delegated
    primitive kernels run on it unchanged - plus the ``(d, n) uint8``
    bucket matrix.
    """

    __slots__ = (
        "ranks_t", "values_t", "scores", "nominal", "table", "np",
        "buckets_t",
    )

    def __init__(
        self, ranks_t, values_t, scores, nominal, table, np, buckets_t
    ) -> None:
        self.ranks_t = ranks_t
        self.values_t = values_t
        self.scores = scores
        self.nominal = nominal
        self.table = table
        self.np = np
        self.buckets_t = buckets_t


class _AcceptState:
    """The packed accepted window: columns, bitmaps and shrink bounds."""

    __slots__ = (
        "np", "num_dims", "ranks", "values", "scores", "buckets", "tb",
        "last_word", "cur_min", "count",
    )

    def __init__(self, np, num_dims: int, capacity: int = 2 * _BLOCK) -> None:
        capacity = max(64, capacity)
        self.np = np
        self.num_dims = num_dims
        self.ranks = np.empty((num_dims, capacity), dtype=np.float64)
        self.values = np.empty((num_dims, capacity), dtype=np.float64)
        self.scores = np.empty(capacity, dtype=np.float64)
        self.buckets = np.empty((num_dims, capacity), dtype=np.uint8)
        self.tb = np.zeros(
            (num_dims, NUM_BUCKETS, (capacity + 63) >> 6), dtype=np.uint64
        )
        self.last_word = np.full(
            (num_dims, NUM_BUCKETS), -1, dtype=np.int64
        )
        self.cur_min = np.full(num_dims, np.inf)
        self.count = 0

    @property
    def words(self) -> int:
        """Words holding set bits (``ceil(count / 64)``)."""
        return (self.count + 63) >> 6

    def _ensure(self, needed: int) -> None:
        np = self.np
        capacity = self.scores.shape[0]
        if needed <= capacity:
            return
        new_cap = max(needed, 2 * capacity)
        for name in ("ranks", "values", "buckets"):
            old = getattr(self, name)
            grown = np.empty((self.num_dims, new_cap), dtype=old.dtype)
            grown[:, :capacity] = old
            setattr(self, name, grown)
        scores = np.empty(new_cap, dtype=np.float64)
        scores[:capacity] = self.scores
        self.scores = scores
        new_words = (new_cap + 63) >> 6
        tb = np.zeros(
            (self.num_dims, NUM_BUCKETS, new_words), dtype=np.uint64
        )
        tb[:, :, : self.tb.shape[2]] = self.tb
        self.tb = tb

    def extend(self, ranks, values, scores, buckets) -> None:
        """Accept a (score-ordered) block: set bits, update bounds.

        ``ranks``/``values``/``buckets`` are ``(d, m)`` column blocks,
        ``scores`` the matching ``(m,)`` vector.
        """
        np = self.np
        m = scores.shape[0]
        if not m:
            return
        t0, t1 = self.count, self.count + m
        self._ensure(t1)
        self.ranks[:, t0:t1] = ranks
        self.values[:, t0:t1] = values
        self.scores[t0:t1] = scores
        self.buckets[:, t0:t1] = buckets
        np.minimum(self.cur_min, ranks.min(axis=1), out=self.cur_min)
        pos = np.arange(t0, t1)
        word = pos >> 6
        bits = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
        for w in range(t0 >> 6, ((t1 - 1) >> 6) + 1):
            sel = word == w
            for j in range(self.num_dims):
                # Per-bucket OR of the new bits, then a cumulative OR
                # over the bucket axis: level k collects every accept
                # with bucket <= k - the threshold property.
                row = np.zeros(NUM_BUCKETS, dtype=np.uint64)
                np.bitwise_or.at(row, buckets[j, sel], bits[sel])
                np.bitwise_or.accumulate(row, out=row)
                self.tb[j, :, w] |= row
        for j in range(self.num_dims):
            level = np.full(NUM_BUCKETS, -1, dtype=np.int64)
            np.maximum.at(level, buckets[j], word)
            np.maximum.accumulate(level, out=level)
            np.maximum(self.last_word[j], level, out=self.last_word[j])
        self.count = t1


def _numpy_sweep(np, state: _AcceptState, nominal, ctx, sel,
                 w0: int, w1: int, t0: int, t1: int):
    """Packed membership sweep without the compiled kernel.

    Candidates are the ``sel`` columns of the full context arrays (no
    gathered copies); accepts in ``[t0, t1)`` (word range ``[w0, w1)``)
    are tested.  The bucket rows are ANDed across dimensions - one
    ``uint64`` word per 64 accepts - and only *flagged* candidates
    (nonzero AND: some accept is bucket-below on every dimension, which
    is almost always a real dominator) fall back to the numpy backend's
    exact staged scan over the matching accept slice.  Returns the
    per-candidate dead mask aligned with ``sel``.
    """
    dead = np.zeros(sel.shape[0], dtype=bool)
    if not sel.shape[0] or t1 <= t0:
        return dead
    buckets = ctx.buckets_t[:, sel]
    m = state.tb[0, buckets[0], w0:w1].copy()
    for j in range(1, state.num_dims):
        m &= state.tb[j, buckets[j], w0:w1]
    shift = t0 - (w0 << 6)
    if shift > 0:  # already-swept bits of the boundary word
        m[:, 0] &= np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(shift)
    flagged = np.nonzero(m.any(axis=1))[0]
    if not flagged.size:
        return dead
    lo, hi = t0, min(t1, w1 << 6)
    window = _Cols(
        state.ranks[:, lo:hi], state.values[:, lo:hi], state.scores[lo:hi]
    )
    csel = sel[flagged]
    cand = _Cols(ctx.ranks_t[:, csel], ctx.values_t[:, csel], ctx.scores[csel])
    dead[flagged] = _dominated_any(np, nominal, window, cand)
    return dead


# ---------------------------------------------------------------------------
# python-int tier
# ---------------------------------------------------------------------------


class _PyBitsetContext:
    """Inputs plus the lazily built python-int packing."""

    __slots__ = ("rows", "table", "_rank_cache")

    def __init__(self, rows, table) -> None:
        self.rows = rows
        self.table = table
        self._rank_cache = {}

    def rank_vector(self, i: int):
        cached = self._rank_cache.get(i)
        if cached is None:
            cached = self._rank_cache[i] = self.table.rank_vector(
                self.rows[i]
            )
        return cached


def _py_cuts(sorted_ids, ctx: _PyBitsetContext) -> List[List[float]]:
    """Per-dimension quantile cut lists from a strided rank sample."""
    if not sorted_ids:
        return []
    stride = max(1, len(sorted_ids) // _SAMPLE)
    sample = [ctx.rank_vector(i) for i in sorted_ids[::stride]]
    num_dims = len(sample[0])
    cuts: List[List[float]] = []
    for j in range(num_dims):
        column = sorted(rv[j] for rv in sample)
        picks = []
        for level in range(1, PY_NUM_BUCKETS):
            value = column[min(
                len(column) - 1, (level * len(column)) // PY_NUM_BUCKETS
            )]
            if not picks or value > picks[-1]:
                picks.append(value)
        cuts.append(picks)
    return cuts


def _py_bucket(cuts: List[float], value: float) -> int:
    """Monotone bucket id of ``value`` under one dimension's cuts."""
    from bisect import bisect_right

    return bisect_right(cuts, value)


class _PyWindow:
    """Python-int packed window: threshold ints + shrink bounds."""

    __slots__ = ("tb", "acc_ids", "cur_min", "num_dims", "levels")

    def __init__(self, num_dims: int, cuts) -> None:
        self.num_dims = num_dims
        self.levels = [len(c) + 1 for c in cuts]
        self.tb = [[0] * levels for levels in self.levels]
        self.acc_ids: List[int] = []
        self.cur_min = [float("inf")] * num_dims

    def dominator_of(self, ctx: _PyBitsetContext, row, buckets) -> bool:
        """Is some accepted point dominating ``row``?"""
        mask = self.tb[0][buckets[0]]
        for j in range(1, self.num_dims):
            if not mask:
                return False
            mask &= self.tb[j][buckets[j]]
        dominates = ctx.table.dominates
        rows = ctx.rows
        while mask:
            low = mask & -mask
            mask ^= low
            if dominates(rows[self.acc_ids[low.bit_length() - 1]], row):
                return True
        return False

    def accept(self, i: int, ranks, buckets) -> None:
        bit = 1 << len(self.acc_ids)
        self.acc_ids.append(i)
        for j in range(self.num_dims):
            row = self.tb[j]
            for k in range(buckets[j], self.levels[j]):
                row[k] |= bit
            if ranks[j] < self.cur_min[j]:
                self.cur_min[j] = ranks[j]


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------


class BitsetBackend(Backend):
    """Bit-parallel packed implementation of the kernel contract.

    Parameters
    ----------
    packed:
        ``"auto"`` (default) picks the ``uint64``-lane tier when NumPy
        is importable and the python-int tier otherwise; ``"numpy"`` /
        ``"python"`` force a tier (tests exercise the int tier with
        NumPy installed; forcing ``"numpy"`` without NumPy raises).
    kernel:
        ``"auto"`` (default) honours ``REPRO_BITSET_KERNEL``; ``"off"``
        disables the compiled sweep for this instance (the A/B axis of
        the benchmark and the kernel-equivalence tests).
    """

    name = "bitset"

    def __init__(self, packed: str = "auto", kernel: str = "auto") -> None:
        if packed not in ("auto", "numpy", "python"):
            raise EngineError(
                f"invalid packed tier {packed!r}; use 'auto', 'numpy' "
                "or 'python'"
            )
        if kernel not in ("auto", "off"):
            raise EngineError(
                f"invalid kernel setting {kernel!r}; use 'auto' or 'off'"
            )
        if packed == "auto":
            packed = "numpy" if numpy_available() else "python"
        self.packed = packed
        self.vectorized = packed == "numpy"
        if self.vectorized:
            self._inner: Backend = NumpyBackend()
            self._sweep, self._kernel_status = (
                load_kernel() if kernel == "auto" else (None, "disabled")
            )
        else:
            self._inner = PythonBackend()
            self._sweep, self._kernel_status = (
                None, "python-int tier (compiled kernel needs NumPy)"
            )
        #: The last store's :class:`_StorePack` (one slot: a service
        #: scans one store per dataset version).
        self._store_pack: Optional[_StorePack] = None

    def availability_detail(self) -> str:
        """One-line tier report for the registry's status surface."""
        if not self.vectorized:
            return "python-int packed tier (NumPy absent or tier forced)"
        if self._sweep is not None:
            return "numpy uint64 lanes + compiled C sweep"
        return f"numpy uint64 lanes ({self._kernel_status})"

    @property
    def compiled(self) -> bool:
        """True when the compiled C sweep is active."""
        return self._sweep is not None

    # -- context ----------------------------------------------------------
    def prepare(self, rows: Sequence[tuple], table, store=None):
        if not self.vectorized:
            return _PyBitsetContext(rows, table)
        np = require_numpy()
        if store is not None and len(store) == len(rows):
            pack = self._store_pack
            if pack is None or pack.store is not store:
                pack = self._store_pack = _StorePack(np, store)
        else:  # a throwaway store: pack it without evicting the slot
            pack = _StorePack(np, ColumnarStore.from_rows(
                rows, table.schema.nominal_indices, num_dims=len(table.schema)
            ))
        store = pack.store
        values_t = store.matrix_t
        shape = (store.num_dims, len(store))
        ranks_t = np.empty(shape, dtype=np.float64)
        buckets_t = np.empty(shape, dtype=np.uint8)
        for k, j in enumerate(pack.numeric):
            ranks_t[j] = values_t[j]
            buckets_t[j] = pack.numeric_buckets[k]
        # Value ids always index their domain's LUT, so "clip" never
        # clips; it only spares the copy "raise" makes of ``out``.
        for k, j in enumerate(pack.nominal):
            rank_lut = np.asarray(table.nominal_lut(j), dtype=np.float64)
            keys = pack.keys_t[k]
            np.take(rank_lut, keys, out=ranks_t[j], mode="clip")
            np.take(
                _nominal_bucket_lut(np, rank_lut, ranks_t[j]), keys,
                out=buckets_t[j], mode="clip",
            )
        return _BitsetContext(
            ranks_t, values_t, ranks_t.sum(axis=0), nominal_flags(table),
            table, np, buckets_t,
        )

    # -- delegating primitive kernels --------------------------------------
    def scores(self, ctx, ids: Sequence[int]) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.scores(ctx, ids)

    def score_rows(self, table, rows: Sequence[tuple]) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.score_rows(table, rows)

    def sort_by_score(self, ctx, ids: Sequence[int]) -> List[int]:
        """Delegates to the packed tier's base backend."""
        return self._inner.sort_by_score(ctx, ids)

    def dominates_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dominates_mask(ctx, p, block)

    def dominated_mask(self, ctx, p: int, block: Sequence[int]) -> List[bool]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dominated_mask(ctx, p, block)

    def any_dominates(self, ctx, p: int, block: Sequence[int]) -> bool:
        """Delegates to the packed tier's base backend."""
        return self._inner.any_dominates(ctx, p, block)

    def compare_many(self, ctx, p: int, block: Sequence[int]) -> List:
        """Delegates to the packed tier's base backend."""
        return self._inner.compare_many(ctx, p, block)

    def dim_ranks(self, ctx, ids: Sequence[int], dim: int) -> List[float]:
        """Delegates to the packed tier's base backend."""
        return self._inner.dim_ranks(ctx, ids, dim)

    # -- packed composite kernels ------------------------------------------
    def skyline(self, ctx, ids: Sequence[int]) -> List[int]:
        """Accept-then-sweep skyline on the packed window."""
        if not self.vectorized:
            return self._skyline_python(ctx, ids)
        return self._skyline_numpy(ctx, ids)

    def dominated_any(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        """Packed membership sweep (the bruteforce / D&C primitive)."""
        if not self.vectorized:
            return self._dominated_any_python(ctx, targets, against)
        return self._dominated_any_numpy(ctx, targets, against)

    # -- numpy tier --------------------------------------------------------
    def _run_sweep(self, np, state, nominal_u8, nominal, ctx, sel,
                   w0, w1, t0, t1):
        """Dead mask of candidates ``sel`` vs accepts ``[t0, t1)``."""
        if self._sweep is not None:
            dead = np.zeros(sel.shape[0], dtype=np.uint8)
            self._sweep(
                np, state, nominal_u8, ctx, sel, w0, w1, t0, t1, dead
            )
            return dead.view(bool)
        return _numpy_sweep(np, state, nominal, ctx, sel, w0, w1, t0, t1)

    def _gather_block(self, np, ctx, block_ids):
        """Contiguous column block of a (small) id array."""
        return (
            np.ascontiguousarray(ctx.ranks_t[:, block_ids]),
            np.ascontiguousarray(ctx.values_t[:, block_ids]),
            np.ascontiguousarray(ctx.scores[block_ids]),
            np.ascontiguousarray(ctx.buckets_t[:, block_ids]),
        )

    def _skyline_numpy(self, ctx, ids: Sequence[int]) -> List[int]:
        np = ctx.np
        idx = self._inner._ids_array(ctx, ids)
        if idx.size == 0:
            return []
        sorted_ids = score_order(np, ctx, idx)  # see "Visit order"
        num_dims = len(ctx.nominal)
        nominal_u8 = np.asarray(ctx.nominal, dtype=np.uint8)
        state = _AcceptState(np, num_dims)
        # `rest` holds original ids in score order; only small per-block
        # gathers copy columns - the sweeps address the context arrays
        # through the id array directly.
        rest = sorted_ids
        out: List[int] = []
        while rest.size:
            block_ids = rest[:_BLOCK]
            rest = rest[_BLOCK:]
            ranks, values, scores, buckets = self._gather_block(
                np, ctx, block_ids
            )
            if block_ids.size > 1:
                # Intra-block pairwise resolution: sound because every
                # remaining candidate is undominated by all previous
                # accepts (loop invariant) and score order means only
                # earlier block members can dominate later ones.
                cols = _Cols(ranks, values, scores)
                peer = _dominates_matrix(np, ctx.nominal, cols, cols)
                keep = ~peer.any(axis=0)
                if not keep.all():
                    block_ids = block_ids[keep]
                    ranks = np.ascontiguousarray(ranks[:, keep])
                    values = np.ascontiguousarray(values[:, keep])
                    scores = np.ascontiguousarray(scores[keep])
                    buckets = np.ascontiguousarray(buckets[:, keep])
            out.extend(block_ids.tolist())
            t0 = state.count
            state.extend(ranks, values, scores, buckets)
            t1 = state.count
            if rest.size:
                dead = self._run_sweep(
                    np, state, nominal_u8, ctx.nominal, ctx, rest,
                    t0 >> 6, ((t1 - 1) >> 6) + 1, t0, t1,
                )
                rest = rest[~dead]
        return out

    def _dominated_any_numpy(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        np = ctx.np
        t_idx = self._inner._ids_array(ctx, targets)
        if t_idx.size == 0:
            return []
        a_idx = self._inner._ids_array(ctx, against)
        if a_idx.size == 0:
            return [False] * t_idx.size
        num_dims = len(ctx.nominal)
        nominal_u8 = np.asarray(ctx.nominal, dtype=np.uint8)
        # Strongest-first window: the early words kill the bulk, so the
        # staged scan below resolves most targets in its first words.
        a_sorted = a_idx[np.argsort(ctx.scores[a_idx])]
        state = _AcceptState(np, num_dims, capacity=a_sorted.size)
        state.extend(*self._gather_block(np, ctx, a_sorted))
        dead = np.zeros(t_idx.size, dtype=bool)
        # Running-minima shield: strictly better than every window
        # point somewhere == undominated, no bitmap work at all.
        shielded = (
            ctx.ranks_t[:, t_idx] < state.cur_min[:, None]
        ).any(axis=0)
        pos = np.nonzero(~shielded)[0]
        if not pos.size:
            return dead.tolist()
        alive = np.ascontiguousarray(t_idx[pos])
        # Per-target scan cap: beyond min_j last_word[j][bucket_j] no
        # accept can be not-worse on every dimension.
        caps = state.last_word[0, ctx.buckets_t[0, alive]].copy()
        for j in range(1, num_dims):
            np.minimum(
                caps, state.last_word[j, ctx.buckets_t[j, alive]], out=caps
            )
        caps = caps + 1  # exclusive word bound
        live = caps > 0
        alive = np.ascontiguousarray(alive[live])
        pos = pos[live]
        caps = caps[live]
        w0, stage = 0, _FIRST_STAGE_WORDS
        total_words = state.words
        while alive.size and w0 < total_words:
            w1 = min(total_words, w0 + stage)
            swept = self._run_sweep(
                np, state, nominal_u8, ctx.nominal, ctx, alive,
                w0, w1, w0 << 6, state.count,
            )
            dead[pos[swept]] = True
            still = ~swept & (caps > w1)
            alive = np.ascontiguousarray(alive[still])
            pos = pos[still]
            caps = caps[still]
            w0 = w1
            stage *= 2
        return dead.tolist()

    # -- python-int tier ---------------------------------------------------
    def _skyline_python(self, ctx, ids: Sequence[int]) -> List[int]:
        sorted_ids = self.sort_by_score(ctx, ids)
        if not sorted_ids:
            return []
        cuts = _py_cuts(sorted_ids, ctx)
        num_dims = len(cuts)
        window = _PyWindow(num_dims, cuts)
        out: List[int] = []
        rows = ctx.rows
        for i in sorted_ids:
            ranks = ctx.rank_vector(i)
            buckets = [
                _py_bucket(cuts[j], ranks[j]) for j in range(num_dims)
            ]
            fresh = any(
                ranks[j] < window.cur_min[j] for j in range(num_dims)
            )
            if not fresh and window.dominator_of(ctx, rows[i], buckets):
                continue
            window.accept(i, ranks, buckets)
            out.append(i)
        return out

    def _dominated_any_python(
        self, ctx, targets: Sequence[int], against: Sequence[int]
    ) -> List[bool]:
        target_list = list(targets)
        if not target_list:
            return []
        against_sorted = self.sort_by_score(ctx, against)
        if not against_sorted:
            return [False] * len(target_list)
        cuts = _py_cuts(against_sorted, ctx)
        num_dims = len(cuts)
        window = _PyWindow(num_dims, cuts)
        for i in against_sorted:
            ranks = ctx.rank_vector(i)
            window.accept(
                i, ranks,
                [_py_bucket(cuts[j], ranks[j]) for j in range(num_dims)],
            )
        rows = ctx.rows
        out: List[bool] = []
        for i in target_list:
            ranks = ctx.rank_vector(i)
            if any(ranks[j] < window.cur_min[j] for j in range(num_dims)):
                out.append(False)
                continue
            buckets = [
                _py_bucket(cuts[j], ranks[j]) for j in range(num_dims)
            ]
            out.append(window.dominator_of(ctx, rows[i], buckets))
        return out


def make_bitset_backend(
    packed: str = "auto", kernel: str = "auto"
) -> BitsetBackend:
    """Build a configured :class:`BitsetBackend` (tier/kernel knobs).

    The registry's ``"bitset"`` entry is the all-auto instance; tests
    and benchmarks use this factory to force tiers for A/B runs.
    """
    return BitsetBackend(packed=packed, kernel=kernel)
