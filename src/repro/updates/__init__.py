"""repro.updates - incremental maintenance under inserts and deletes.

The paper's structures answer online preference queries over a *static*
table; this package is the churn story layered underneath the serving
layer:

* :class:`DynamicDataset` - a mutable dataset: O(appended) appends,
  tombstoned deletes (ids stay stable), periodic :meth:`compaction
  <DynamicDataset.compact>`.
* :class:`IncrementalSkyline` - per-preference skyline maintenance a
  batch at a time: inserts evict what their entrants dominate, deletes
  recompute only the rows the departed members shadowed.
* :class:`UpdateEffect` - the membership delta of one batch; a
  non-empty one makes :mod:`repro.serve` rebuild its indexes.
* :class:`ReadWriteLock` - writer-preferring RW lock letting queries
  stay concurrent while updates run exclusively.

See ``docs/updates.md`` for the maintenance algorithm, the invalidation
contract and the planner gating, and ``benchmarks/bench_updates.py``
for the maintain-vs-rebuild measurements.
"""

from repro.updates.dataset import DynamicDataset
from repro.updates.incremental import IncrementalSkyline, UpdateEffect
from repro.updates.rwlock import ReadWriteLock

__all__ = [
    "DynamicDataset",
    "IncrementalSkyline",
    "ReadWriteLock",
    "UpdateEffect",
]
