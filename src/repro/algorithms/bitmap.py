"""Bitmap skyline [Tan, Eng, Ooi, VLDB'01], adapted to partial orders.

One of the representative full-space skyline methods the paper lists in
its related work.  The idea: pre-slice the data into per-dimension
bitmaps so that the dominators of a point can be found with a handful
of bitwise operations instead of pairwise dominance tests.

For each dimension ``i`` and each distinct value ``v`` occurring there:

* ``B_i(v)`` - bitmap of points *at least as good* as ``v`` on ``i``
  (equal value, or strictly better rank; two distinct nominal values
  sharing the unlisted default rank are incomparable and are *not*
  included),
* ``D_i(v)`` - bitmap of points *strictly better* than ``v`` on ``i``.

A point ``p`` with values ``(v_1 .. v_m)`` is dominated iff

    ``(AND_i B_i(v_i))  AND  (OR_i D_i(v_i))  !=  0``

the left factor being the points better-or-equal everywhere and the
right factor the points strictly better somewhere; ``p`` itself never
appears in the right factor, so any surviving bit is a genuine
dominator.

The slicing costs ``O(N)`` bitmaps of ``N`` bits per *distinct value*,
so the method suits low-cardinality domains (its original setting);
with ranked nominal attributes and bucketised numeric values it drops
in as another exact baseline, cross-checked against brute force in the
tests.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.dominance import RankTable
from repro.engine import resolve_backend


def bitmap_skyline(
    rows: Sequence[tuple],
    ids: Sequence[int],
    table: RankTable,
    backend=None,
    store=None,
) -> List[int]:
    """Skyline ids of ``ids`` via bitmap slicing.

    The bitslice construction first materialises every point's
    comparison key per dimension through the backend's batched
    ``dim_ranks`` kernel (one vectorized rank gather per column on
    the numpy backend, instead of a table lookup per point), then builds
    the ``B_i`` / ``D_i`` bitmaps from those key columns.
    """
    id_list = list(ids)
    if not id_list:
        return []
    engine = resolve_backend(backend)
    ctx = engine.prepare(rows, table, store=store)
    num_dims = len(rows[id_list[0]])
    nominal_dims = frozenset(table.schema.nominal_indices)

    # Per dimension: one key per point (aligned with id_list), then
    # value key -> (better_or_equal_mask, strictly_better_mask).
    point_keys: List[List[Tuple]] = []
    better_equal: List[Dict[object, int]] = []
    strictly_better: List[Dict[object, int]] = []
    for dim in range(num_dims):
        ranks = engine.dim_ranks(ctx, id_list, dim)
        if dim in nominal_dims:
            # (rank, value id): equal-rank distinct values stay
            # distinguishable - they are incomparable, not equal.
            keys = [
                ("nom", rank, rows[i][dim])
                for rank, i in zip(ranks, id_list)
            ]
        else:
            keys = [("num", rank) for rank in ranks]
        point_keys.append(keys)
        be, sb = _slice_dimension(keys)
        better_equal.append(be)
        strictly_better.append(sb)

    out: List[int] = []
    for pos, point_id in enumerate(id_list):
        conjunction = -1  # all-ones: AND-identity
        disjunction = 0
        for dim in range(num_dims):
            key = point_keys[dim][pos]
            conjunction &= better_equal[dim][key]
            disjunction |= strictly_better[dim][key]
        dominators = conjunction & disjunction
        if dominators == 0:
            out.append(point_id)
    return out


def _slice_dimension(
    keys: List[Tuple],
) -> Tuple[Dict[object, int], Dict[object, int]]:
    """Build ``B_i`` and ``D_i`` for one dimension from its key column."""
    # Bitmap of points per key (bit k = position k in the id list).
    per_key: Dict[object, int] = {}
    for position, key in enumerate(keys):
        per_key[key] = per_key.get(key, 0) | (1 << position)

    better_equal: Dict[object, int] = {}
    strictly_better: Dict[object, int] = {}
    for key in per_key:
        sb = 0
        for other, mask in per_key.items():
            if _strictly_better(other, key):
                sb |= mask
        strictly_better[key] = sb
        better_equal[key] = sb | per_key[key]
    return better_equal, strictly_better


def _strictly_better(a, b) -> bool:
    """Is key ``a`` strictly better than key ``b`` on its dimension?"""
    if a[0] == "num":
        return a[1] < b[1]
    # Nominal: strictly better iff strictly smaller rank.  Equal ranks
    # with different value ids are incomparable.
    return a[1] < b[1]
