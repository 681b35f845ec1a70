"""Durability for the serving layer: snapshots, a WAL, crash recovery.

Everything the serving stack builds - the
:class:`~repro.updates.dataset.DynamicDataset`, the maintained
:class:`~repro.updates.incremental.IncrementalSkyline`, the semantic
cache - is otherwise process-resident and dies with a restart.  This
package implements the classic snapshot + write-ahead log pattern
around the data and the maintained skylines (the indexes are regrown
from those at recovery):

* :mod:`repro.storage.snapshot` - atomic, versioned JSON snapshots of
  the full dataset slot space **with its canonical encodings**, so a
  load never re-encodes a row;
* :mod:`repro.storage.wal` - an append-only, CRC-framed, per-batch
  fsync'd log of ``insert_rows`` / ``delete_rows`` / ``compact``
  batches stamped with the data versions they produced;
* :mod:`repro.storage.store` - :class:`DurableStore`: directory
  layout, checkpoint policy (every N ops / M WAL bytes), rotation and
  recovery (newest snapshot + committed log tail, torn tail dropped).

The serving layer wires it up via ``SkylineService(storage_dir=...)``
(log every mutation, auto-checkpoint under the policy) and
``SkylineService.recover(storage_dir)`` (rebuild the exact pre-crash
service, answering at the pre-crash data version).  See
``docs/storage.md`` for the on-disk formats and the recovery contract.
"""

from repro.storage.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    dataset_state,
    read_snapshot,
    restore_dataset,
    schema_fingerprint,
    schema_from_fingerprint,
    write_snapshot,
)
from repro.storage.store import CheckpointPolicy, DurableStore, RecoveredState
from repro.storage.wal import (
    WalWindow,
    WriteAheadLog,
    frame_record,
    verify_frame,
)

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "CheckpointPolicy",
    "DurableStore",
    "RecoveredState",
    "WalWindow",
    "WriteAheadLog",
    "dataset_state",
    "frame_record",
    "read_snapshot",
    "restore_dataset",
    "schema_fingerprint",
    "schema_from_fingerprint",
    "verify_frame",
    "write_snapshot",
]
