"""MDC-filter evaluation: answering queries straight from the conditions.

The paper's technical-report companion ([21], "Online skyline analysis
with dynamic preferences on nominal attributes") studies answering
implicit-preference queries by testing, per template-skyline point,
whether any of its minimal disqualifying conditions is contained in the
query's partial order - no per-combination materialisation at all.
The IPO-tree uses the same machinery at *construction* time (Section
3.1); :class:`MDCFilter` exposes it as a standalone index:

* preprocessing: one MDC computation, ``O(|SKY(R0)|^2 * m)`` - far
  below IPO-tree construction, slightly above Adaptive SFS,
* storage: the conditions themselves (typically a handful per point),
* query: over the ``C`` conditions of all template-skyline members,
  one lookup-table gather and compare per nominal dimension, plus one
  scatter to the owning members (:class:`~repro.mdc.mdc.ConditionStore`;
  without NumPy, ``C`` containment tests in Python) - faster than
  SFS-D (and, on NumPy, than an IPO-tree lookup on the serving
  benchmark's corpus), and supporting *any* value (no popular-value
  restriction), which makes it an alternative fallback for the hybrid
  deployment.

Containment test for a general implicit preference ``R~'_i`` with chain
positions ``pos``: the required pair ``(u, w)`` is in ``P(R~'_i)`` iff
``pos(u)`` is defined and (``w`` is unlisted or ``pos(w) > pos(u)``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import Preference
from repro.engine import resolve_backend
from repro.mdc.mdc import (
    ConditionStore,
    DisqualifyingCondition,
    template_positions,
)


class MDCFilter:
    """Query evaluation by minimal-disqualifying-condition containment.

    Examples
    --------
    >>> # doctest setup omitted; see tests/test_mdc_filter.py
    """

    name = "MDC-Filter"

    def __init__(
        self,
        dataset: Dataset,
        template: Optional[Preference] = None,
        backend=None,
        *,
        conditions: Optional[ConditionStore] = None,
    ) -> None:
        """Build the filter, or wrap a precomputed condition store.

        ``conditions`` skips the template-skyline scan and the MDC
        computation: a store computed over the same data for the
        template skyline (its ``ids``), such as an MDC-built IPO-tree's
        :attr:`~repro.ipo.tree.IPOTree.conditions` or the serving
        layer's shared store.  It is trusted as-is; a stale store
        yields a stale filter.
        """
        started = time.perf_counter()
        self.dataset = dataset
        self.template = template if template is not None else Preference.empty()
        self.template.validate_against(dataset.schema)
        self.backend = resolve_backend(backend)

        if conditions is None:
            template_table = RankTable.compile(
                dataset.schema, None, self.template
            )
            store = dataset.columns if self.backend.vectorized else None
            members = sfs_skyline(
                dataset.canonical_rows,
                dataset.ids,
                template_table,
                backend=self.backend,
                store=store,
            )
            conditions = ConditionStore.compute(
                dataset, sorted(members), backend=self.backend
            )
        self.skyline_ids: Tuple[int, ...] = tuple(sorted(conditions.ids))
        self._conditions = conditions
        self._mdcs: Dict[int, List[DisqualifyingCondition]] = conditions.mdcs
        self.preprocessing_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    def query(self, preference: Optional[Preference] = None) -> List[int]:
        """Skyline ids under ``preference`` (merged over the template),
        in ascending order."""
        pref = preference if preference is not None else Preference.empty()
        merged = pref.merged_over(self.template)
        return self._conditions.survivors(
            template_positions(merged, self.dataset.schema)
        )

    # ------------------------------------------------------------------
    def condition_count(self) -> int:
        """Total stored conditions across all skyline points."""
        return sum(len(v) for v in self._mdcs.values())

    def storage_bytes(self) -> int:
        """Analytic storage: 4-byte id per member + 8 bytes per stored
        (dimension, winner) requirement."""
        requirements = sum(
            len(cond.winners)
            for conditions in self._mdcs.values()
            for cond in conditions
        )
        return 4 * len(self.skyline_ids) + 8 * requirements
