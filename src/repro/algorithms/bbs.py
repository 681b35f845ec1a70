"""BBS: branch-and-bound skyline [Papadias et al., SIGMOD'03], adapted.

The paper's related-work discussion singles BBS out: it is optimal for
*fixed* orders, but "the data partitioning in BBS is based on fixed
orderings on the dimensions and the same partitioning cannot be used
for dynamic or variable preferences on nominal attributes.  Therefore,
new mechanisms need to be explored."  This module makes that statement
executable:

* the R-tree is built over the points' **rank vectors**, which depend
  on the query preference - so the index must be rebuilt per query
  (the build cost is charged to the call, and it is what makes one-shot
  BBS uncompetitive with the IPO-tree / Adaptive SFS);
* the branch-and-bound itself runs as usual, popping entries in
  ascending ``sum(rank)`` order, with one partial-order refinement:
  an MBR may only be pruned by a skyline point that is **strictly**
  better than the MBR's lower corner on *every* dimension.  Strict
  rank inequality on a nominal dimension implies genuine preference
  (a strictly smaller rank means "listed earlier, or listed vs
  unlisted"), whereas rank *equality* can hide two incomparable
  unlisted values - so equality never contributes to pruning, and
  accepted points are verified with exact dominance tests.

Correctness: entries pop in ascending ``(sum(rank), rank vector)``
order (a box is keyed by its lower corner).  If ``a`` dominates ``b``,
``a``'s rank vector is <= ``b``'s on every dimension and < on one, so
its float sum is <= (rounding is monotone) and, on a sum tie, its
vector is lexicographically smaller; every box holding ``a`` has a
key <= ``a``'s.  So ``a`` (or a box holding it) always pops before
``b``: no later point dominates an earlier accepted one.  Every popped
point is checked exactly against the current skyline, and the pruning
rule only discards boxes all of whose points are genuinely
dominated.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Sequence

from repro.core.dominance import RankTable
from repro.spatial.rtree import RTree, bulk_load


def bbs_skyline(
    rows: Sequence[tuple],
    ids: Sequence[int],
    table: RankTable,
    backend=None,
    store=None,
) -> List[int]:
    """One-shot BBS: build an R-tree on rank vectors, branch and bound.

    Matches the other algorithms' ``(rows, ids, table) -> ids``
    signature; the per-call R-tree build is intentional (see module
    docstring).  ``backend``/``store`` are accepted for registry
    uniformity but unused: the branch-and-bound pops entries one at a
    time from a heap, which has no block structure to vectorize.
    """
    id_list = list(ids)
    if not id_list:
        return []
    tree: RTree = bulk_load(
        [(table.rank_vector(rows[i]), i) for i in id_list]
    )

    dominates = table.dominates
    skyline_ids: List[int] = []
    skyline_ranks: List[tuple] = []

    # Heap keys: (score, rank vector or lower corner, unique counter).
    counter = itertools.count()
    root = tree.root
    heap = [(root.min_score(), root.lower_corner, next(counter), root, None)]
    while heap:
        _score, _corner, _tie, node, point_id = heapq.heappop(heap)
        if point_id is not None:
            # A concrete point: exact dominance check against the
            # accepted skyline (rank ties can hide incomparability, so
            # the conservative prune is not enough here).
            p = rows[point_id]
            if any(dominates(rows[s], p) for s in skyline_ids):
                continue
            skyline_ids.append(point_id)
            skyline_ranks.append(table.rank_vector(p))
            continue
        if _pruned(node.lower_corner, skyline_ranks):
            continue
        if node.is_leaf:
            for point, child_id in node.entries:
                if not _pruned(point, skyline_ranks):
                    heapq.heappush(
                        heap,
                        (sum(point), point, next(counter), node, child_id),
                    )
        else:
            for child in node.children:
                if not _pruned(child.lower_corner, skyline_ranks):
                    heapq.heappush(
                        heap,
                        (
                            child.min_score(), child.lower_corner,
                            next(counter), child, None,
                        ),
                    )
    return skyline_ids


def _pruned(corner, skyline_ranks: List[tuple]) -> bool:
    """Conservative prune: some skyline point strictly rank-beats the
    corner on every dimension.

    Sound for MBR corners (a virtual best-case point) *and* for real
    points: strict rank inequality implies genuine per-dimension
    preference under the partial-order semantics, so a strict win on
    all dimensions implies dominance of everything in the box.
    """
    for s_rank in skyline_ranks:
        if all(sr < cr for sr, cr in zip(s_rank, corner)):
            return True
    return False
