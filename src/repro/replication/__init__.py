"""Scale-out layer: WAL-shipped read replicas.

A single :class:`~repro.serve.service.SkylineService` answers every
query; this package adds read capacity and failover by copying it,
without touching the core algorithms:

* **Read replication** (:mod:`repro.replication.follower`) - a
  :class:`Follower` bootstraps from the primary's newest snapshot
  (``POST /replication/snapshot``) and then tails the primary's
  write-ahead log over offset-addressed windows
  (``POST /replication/wal``).  Every shipped frame is CRC-verified and
  version-checked before it is applied through the *same* mutation path
  crash recovery replays, so a replica is always an exact copy of the
  primary at some recent version: it may **lag**, it never lies.
* **Routing** (:mod:`repro.replication.router`) - a
  :class:`FanOutClient` sends mutations to the primary and fans
  queries out across replicas under a bounded-staleness contract
  pinned to the ``version`` stamp every answer carries.

There is no sharding: an indexed single service out-answered a
scatter-gather coordinator over the same rows in every measured cell
(``docs/replication.md``, "No sharding").

``python -m repro.replication --smoke`` boots a primary and two
followers in one process and checks mutate-then-query convergence end
to end (the CI replication leg).
"""

from repro.replication.follower import Follower
from repro.replication.router import FanOutClient
from repro.replication.stream import (
    HttpReplicationSource,
    LocalReplicationSource,
    ReplicationSource,
)

__all__ = [
    "FanOutClient",
    "Follower",
    "HttpReplicationSource",
    "LocalReplicationSource",
    "ReplicationSource",
]
