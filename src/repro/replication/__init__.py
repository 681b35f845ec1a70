"""Scale-out layer: WAL-shipped read replicas and sharded scatter-gather.

A single :class:`~repro.serve.service.SkylineService` is bounded by one
machine.  This package grows the system along the two classic axes
without touching the core algorithms:

* **Read replication** (:mod:`repro.replication.follower`) - a
  :class:`Follower` bootstraps from the primary's newest snapshot
  (``POST /replication/snapshot``) and then tails the primary's
  write-ahead log over offset-addressed windows
  (``POST /replication/wal``).  Every shipped frame is CRC-verified and
  version-checked before it is applied through the *same* mutation path
  crash recovery replays, so a replica is always an exact copy of the
  primary at some recent version: it may **lag**, it never lies.
* **Sharding** (:mod:`repro.replication.coordinator`) - a
  :class:`ShardCoordinator` stripes rows across shard servers, asks
  each for its *local* skyline in parallel and merges by computing the
  skyline of the union of local skylines.  The union contains every
  global skyline point (a globally undominated point is undominated on
  its own shard) and the merge sweep removes the cross-shard dominated
  rest, so the answer is exact (the full argument is in the
  coordinator's module docstring).
* **Routing** (:mod:`repro.replication.router`) - a
  :class:`FanOutClient` sends mutations to the primary and fans
  queries out across replicas under a bounded-staleness contract
  pinned to the ``version`` stamp every answer carries.

``python -m repro.replication --smoke`` boots a primary, two followers
and a two-shard scatter-gather cluster in one process and checks
mutate-then-query convergence end to end (the CI replication leg).
"""

from repro.replication.coordinator import (
    ScatterResult,
    ScatterUpdate,
    ShardCoordinator,
    stripe_dataset,
)
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
    "ScatterResult",
    "ScatterUpdate",
    "ShardCoordinator",
    "stripe_dataset",
]
