"""Sharded scatter-gather: local skylines per shard, exact global merge.

**Why the merge is exact.**  Stripe the rows across shards; ask each
shard for the skyline of *its* rows only; take the skyline of the
union of those local skylines.  The argument holds for *any* split of
the rows, and it only needs dominance under one preference to be a
strict partial order (irreflexive and transitive):

1. A point dominated by nothing globally is dominated by nothing on
   its own shard, so every global skyline point survives into the
   union: ``SKY(all) <= union``.
2. Let ``p`` be a union point that some ``q`` dominates globally.
   Either ``q`` survived its own shard, so ``q`` is in the union, or
   it did not.  On finite data every dominated point is dominated by
   a member of the skyline, so some member ``r`` of that shard's local
   skyline dominates ``q``.  Dominance is transitive, so ``r``
   dominates ``p`` from inside the union.  Either way the final sweep
   removes ``p``.

So the skyline of the union is exactly the global skyline.  One
caveat is the paper's partial-order subtlety.  Two *distinct* nominal
values that the preference does not list are mutually incomparable,
not tied.  Per dimension the preference is still a partial order, so
transitivity holds, but only if the shards and the merge use the same
dominance test.  The coordinator never compares points itself.  Every
shard route matches the bruteforce oracle, and the merge runs
:func:`repro.core.skyline.skyline` over the same schema, template and
preference, so stage one and stage two share one dominance relation.
A merge that collapsed unlisted values into one tied rank would be
transitive too, and wrong.  The differential tests in
``tests/test_replication.py`` pin the coordinator against a
single-node service over the same dataset.

**Global ids.**  The coordinator addresses rows by *global id* = the
order they entered the cluster.  With round-robin striping
(:func:`stripe_dataset`) and every shard ingesting in arrival order,
the mapping is arithmetic: ``shard_of(gid) = gid % shards`` and
``local_of(gid) = gid // shards``, and for the initial load the global
id *equals the original row index* - so a coordinator answer is
directly comparable against a single-node service over the same
dataset (the differential tests do exactly that).  The invariant only
holds while every mutation flows through the coordinator and no shard
is ever compacted behind its back; the insert path verifies the local
ids each shard assigns and refuses loudly on the first mismatch.

**Failure policy.**  Shard calls ride the PR-8 resilience machinery
(retries with jittered backoff, idempotency-keyed mutations, circuit
breaker).  If a shard still cannot answer, the query fails with
:class:`~repro.exceptions.ShardError` - a merged skyline is only exact
over *all* local skylines, so a partial union would be a silently
wrong answer, and refusing is the whole point.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.dataset import Dataset
from repro.core.preferences import Preference
from repro.core.skyline import skyline
from repro.exceptions import DatasetError, ReproError, ShardError
from repro.net.resilient import ResilientClient, RetryPolicy


def stripe_dataset(dataset: Dataset, shards: int) -> List[Dataset]:
    """Round-robin split: row ``i`` goes to shard ``i % shards``.

    Each stripe preserves arrival order, so shard ``s``'s local id
    ``l`` holds original row ``l * shards + s`` - the gid arithmetic
    the coordinator relies on.  Boot each shard server over its stripe.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    rows = [dataset.row(i) for i in range(len(dataset))]
    return [
        Dataset(dataset.schema, rows[shard::shards])
        for shard in range(shards)
    ]


@dataclass(frozen=True)
class ScatterResult:
    """One merged scatter-gather answer.

    ``ids`` are **global** ids (== original row indices for the initial
    load); ``shard_versions`` the data version each local answer was
    computed at; ``candidates`` how many union rows the merge swept.
    """

    ids: Tuple[int, ...]
    shard_versions: Tuple[int, ...]
    candidates: int
    merge_seconds: float
    seconds: float

    def __len__(self) -> int:
        return len(self.ids)


class ScatterUpdate:
    """One applied cluster mutation: global ids + per-shard versions."""

    __slots__ = ("kind", "gids", "shard_versions")

    def __init__(
        self,
        kind: str,
        gids: Tuple[int, ...],
        shard_versions: Dict[int, int],
    ) -> None:
        self.kind = kind
        self.gids = gids
        self.shard_versions = shard_versions


class ShardCoordinator:
    """Scatter queries and mutations across striped shard servers.

    Construct it over the *full* dataset and the shard addresses; each
    shard server must already be serving its
    :func:`stripe_dataset` stripe.  Mutations must flow through the
    coordinator (it owns the gid arithmetic) and shards must never be
    compacted independently - compaction remaps local ids.

    Thread-safety: one coordinator may be shared by callers holding
    their own locks; internally a single lock guards the gid
    bookkeeping while queries fan out on a private thread pool with
    one keep-alive client per shard (clients are single-threaded, so
    each shard's calls are serialised through its pool slot).
    """

    def __init__(
        self,
        dataset: Dataset,
        addresses: Sequence[Tuple[str, int]],
        *,
        template: Optional[Preference] = None,
        backend=None,
        timeout: float = 30.0,
        policy: Optional[RetryPolicy] = None,
        seed: Optional[int] = None,
    ) -> None:
        if not addresses:
            raise ValueError("need at least one shard address")
        self.schema = dataset.schema
        self.template = template
        self.backend = backend
        self.shards = len(addresses)
        self._clients = tuple(
            ResilientClient(
                host,
                port,
                timeout=timeout,
                policy=policy,
                seed=None if seed is None else seed + index,
            )
            for index, (host, port) in enumerate(addresses)
        )
        self._lock = threading.Lock()
        self._rows: Dict[int, Tuple[object, ...]] = {
            gid: dataset.row(gid) for gid in range(len(dataset))
        }
        #: Rows ever appended per shard == the next local id it assigns.
        self._appended = [
            len(range(shard, len(dataset), self.shards))
            for shard in range(self.shards)
        ]
        self._next_gid = len(dataset)
        self._pool = ThreadPoolExecutor(
            max_workers=self.shards, thread_name_prefix="repro-scatter"
        )

    # -- gid arithmetic ----------------------------------------------------
    def shard_of(self, gid: int) -> int:
        """Which shard holds global id ``gid`` (round-robin striping)."""
        return gid % self.shards

    def local_of(self, gid: int) -> int:
        """``gid``'s local point id on its shard."""
        return gid // self.shards

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # -- queries -----------------------------------------------------------
    def query(
        self,
        preference: Optional[Preference] = None,
        *,
        use_cache: bool = True,
    ) -> ScatterResult:
        """The exact global skyline, or :class:`ShardError` - never partial."""
        started = time.perf_counter()
        futures = [
            self._pool.submit(self._shard_query, s, preference, use_cache)
            for s in range(self.shards)
        ]
        local_ids: List[Tuple[int, ...]] = [()] * self.shards
        versions = [0] * self.shards
        failures: List[str] = []
        for shard, future in enumerate(futures):
            try:
                local_ids[shard], versions[shard] = future.result()
            except ShardError as exc:
                failures.append(str(exc))
        if failures:
            raise ShardError(
                f"scatter-gather refused: {len(failures)} of "
                f"{self.shards} shard(s) unanswerable - a merged skyline "
                f"is only exact over all shards ({failures[0]})"
            )
        candidates = [
            local * self.shards + shard
            for shard, ids in enumerate(local_ids)
            for local in ids
        ]
        merge_started = time.perf_counter()
        with self._lock:
            try:
                rows = [self._rows[gid] for gid in candidates]
            except KeyError as exc:
                raise ShardError(
                    f"a shard answered with local ids mapping to global id "
                    f"{exc.args[0]}, unknown to the coordinator - the shard "
                    f"was mutated outside this coordinator"
                ) from None
        union = Dataset(self.schema, rows)
        merged = skyline(
            union,
            preference,
            template=self.template,
            backend=self.backend,
        )
        done = time.perf_counter()
        return ScatterResult(
            ids=tuple(sorted(candidates[i] for i in merged.ids)),
            shard_versions=tuple(versions),
            candidates=len(candidates),
            merge_seconds=done - merge_started,
            seconds=done - started,
        )

    def _shard_query(
        self, shard: int, preference: Optional[Preference], use_cache: bool
    ) -> Tuple[Tuple[int, ...], int]:
        try:
            response = self._clients[shard].query(
                preference, use_cache=use_cache
            )
        except ReproError as exc:
            raise ShardError(f"shard {shard} unreachable: {exc}") from exc
        if response.status != 200 or not isinstance(response.json, dict):
            raise ShardError(
                f"shard {shard} /query answered {response.status}: "
                f"{response.text[:200]}"
            )
        return (
            tuple(response.json["ids"]),
            int(response.json.get("version", 0)),
        )

    # -- mutations ---------------------------------------------------------
    def insert(self, rows: Sequence[Sequence[object]]) -> ScatterUpdate:
        """Append rows cluster-wide, assigning gids in arrival order.

        Each shard's sub-batch is one idempotency-keyed ``/insert`` (so
        per-shard it is all-or-nothing); across shards there is no
        atomicity - on failure the applied shards keep their rows, the
        failed shards' rows are rolled out of the coordinator's map,
        their gids become permanent holes, and :class:`ShardError`
        reports exactly which rows did not land.
        """
        staged = [tuple(row) for row in rows]
        with self._lock:
            batches: List[List[Tuple[int, int, Tuple[object, ...]]]] = [
                [] for _ in range(self.shards)
            ]
            gids: List[int] = []
            for row in staged:
                gid = self._next_gid
                self._next_gid += 1
                shard = gid % self.shards
                batches[shard].append((gid, self._appended[shard], row))
                self._appended[shard] += 1
                gids.append(gid)
        futures = {
            shard: self._pool.submit(self._shard_insert, shard, batch)
            for shard, batch in enumerate(batches)
            if batch
        }
        versions: Dict[int, int] = {}
        failures: List[Tuple[int, str]] = []
        for shard, future in futures.items():
            try:
                versions[shard] = future.result()
            except ShardError as exc:
                failures.append((shard, str(exc)))
        with self._lock:
            for shard, batch in enumerate(batches):
                if shard in versions:
                    for gid, _, row in batch:
                        self._rows[gid] = row
                elif batches[shard]:
                    # Nothing landed on this shard (its one request is
                    # atomic): un-reserve the local ids it never assigned.
                    self._appended[shard] -= len(batch)
        if failures:
            lost = [
                gid
                for shard, batch in enumerate(batches)
                if shard not in versions
                for gid, _, _ in batch
            ]
            raise ShardError(
                f"insert incomplete: shard(s) "
                f"{sorted(shard for shard, _ in failures)} did not apply "
                f"their sub-batch (global ids {lost} were not inserted): "
                f"{failures[0][1]}"
            )
        return ScatterUpdate("insert", tuple(gids), versions)

    def _shard_insert(
        self, shard: int, batch: List[Tuple[int, int, Tuple[object, ...]]]
    ) -> int:
        try:
            response = self._clients[shard].insert(
                [row for _, _, row in batch]
            )
        except ReproError as exc:
            raise ShardError(f"shard {shard} unreachable: {exc}") from exc
        if response.status != 200 or not isinstance(response.json, dict):
            raise ShardError(
                f"shard {shard} /insert answered {response.status}: "
                f"{response.text[:200]}"
            )
        assigned = response.json.get("point_ids")
        expected = [local for _, local, _ in batch]
        if list(assigned or ()) != expected:
            raise ShardError(
                f"shard {shard} assigned local ids {assigned!r} where the "
                f"coordinator expected {expected} - the shard was mutated "
                f"(or compacted) outside this coordinator; refusing to "
                f"continue with broken gid arithmetic"
            )
        return int(response.json.get("version", 0))

    def delete(self, gids: Sequence[int]) -> ScatterUpdate:
        """Delete rows by global id (unknown gids raise before any I/O)."""
        targets = [int(gid) for gid in gids]
        with self._lock:
            for gid in targets:
                if gid not in self._rows:
                    raise DatasetError(
                        f"unknown global id {gid} (deleted, never inserted, "
                        f"or lost to a failed insert)"
                    )
        per_shard: Dict[int, List[int]] = {}
        for gid in targets:
            per_shard.setdefault(gid % self.shards, []).append(gid)
        futures = {
            shard: self._pool.submit(self._shard_delete, shard, batch)
            for shard, batch in per_shard.items()
        }
        versions: Dict[int, int] = {}
        failures: List[Tuple[int, str]] = []
        for shard, future in futures.items():
            try:
                versions[shard] = future.result()
            except ShardError as exc:
                failures.append((shard, str(exc)))
        with self._lock:
            for shard, batch in per_shard.items():
                if shard in versions:
                    for gid in batch:
                        self._rows.pop(gid, None)
        if failures:
            raise ShardError(
                f"delete incomplete: shard(s) "
                f"{sorted(shard for shard, _ in failures)} did not apply "
                f"their sub-batch: {failures[0][1]}"
            )
        return ScatterUpdate("delete", tuple(targets), versions)

    def _shard_delete(self, shard: int, batch: List[int]) -> int:
        try:
            response = self._clients[shard].delete(
                [gid // self.shards for gid in batch]
            )
        except ReproError as exc:
            raise ShardError(f"shard {shard} unreachable: {exc}") from exc
        if response.status != 200 or not isinstance(response.json, dict):
            raise ShardError(
                f"shard {shard} /delete answered {response.status}: "
                f"{response.text[:200]}"
            )
        return int(response.json.get("version", 0))

    # -- lifecycle ---------------------------------------------------------
    def healthz(self) -> Dict[int, dict]:
        """Each shard's ``/healthz`` body (reachable shards only)."""
        out: Dict[int, dict] = {}
        for shard, client in enumerate(self._clients):
            try:
                response = client.healthz()
            except ReproError:
                continue
            if isinstance(response.json, dict):
                out[shard] = response.json
        return out

    def close(self) -> None:
        """Shut the pool down and close every shard client."""
        self._pool.shutdown(wait=True)
        for client in self._clients:
            client.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
