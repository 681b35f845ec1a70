"""Ranking helpers for Adaptive SFS (Section 4.2 of the paper).

Each value ``v`` of a dimension carries a rank ``r(v)``; the preference
score is ``f(p) = sum_i r(p.Di)``.  For a nominal attribute of
cardinality ``c`` the default rank of every value is ``c``; an implicit
preference ``v1 < ... < vx < *`` overrides the listed values with ranks
``1..x``.  The actual rank arithmetic lives in
:class:`~repro.core.dominance.RankTable`; this module computes the
*delta* between a query's ranks and the template's ranks, which is what
drives Adaptive SFS: only points holding a value whose rank changed
move inside the presorted list.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.core.dominance import RankTable


def changed_values(
    template_table: RankTable, query_table: RankTable
) -> Dict[int, Set[int]]:
    """Value ids whose rank differs between template and query, per dim.

    Both tables must be compiled against the same schema.  Only nominal
    dimensions can differ (universal orders are schema-fixed).  Because a
    query refines the template, ranks only *decrease*: a changed value
    was unlisted (rank ``c``) under the template and becomes listed.

    Returns a mapping ``dimension index -> set of value ids``;
    dimensions without changes are omitted.
    """
    if template_table.schema is not query_table.schema:
        if template_table.schema != query_table.schema:
            raise ValueError("rank tables compiled against different schemas")
    out: Dict[int, Set[int]] = {}
    for dim in template_table.schema.nominal_indices:
        spec = template_table.schema[dim]
        changed = {
            vid
            for vid in range(spec.cardinality)
            if template_table.nominal_rank(dim, vid)
            != query_table.nominal_rank(dim, vid)
        }
        if changed:
            out[dim] = changed
    return out


def listed_values(table: RankTable) -> Dict[int, Set[int]]:
    """Value ids listed by the (merged) preference, per nominal dim.

    This is the paper's ``AFFECT`` notion - "skyline points in SKY(R~)
    with values in R~'" counts a point as affected when it holds any
    *listed* value, changed rank or not.
    """
    out: Dict[int, Set[int]] = {}
    for dim in table.schema.nominal_indices:
        spec = table.schema[dim]
        listed = {
            vid
            for vid in range(spec.cardinality)
            if table.nominal_rank(dim, vid) <= table.listed_count(dim)
            and table.listed_count(dim) > 0
        }
        if listed:
            out[dim] = listed
    return out

