"""The serving facade: one `query()` entry point over all structures.

:class:`SkylineService` owns a dataset, a template, the auxiliary
structures the paper proposes (IPO-tree, Adaptive SFS, MDC filter), a
:class:`~repro.serve.cache.SemanticCache` and a
:class:`~repro.serve.planner.Planner`.  Per query it:

1. canonicalises the preference into a cache key
   (:func:`~repro.core.preferences.canonical_cache_key`) - this also
   validates the preference against the schema and the template,
2. consults the semantic cache (equal partial orders hit regardless of
   surface spelling),
3. on a miss, gathers the cheap :class:`~repro.serve.planner.PlanSignals`,
   asks the planner for a route, executes it, and stores the answer.

Queries are read-only on every index, so any number of driver threads
may call :meth:`query` concurrently; the cache and the route counters
are lock-protected.  Every index derives from two maintained skylines
over a :class:`~repro.updates.dataset.DynamicDataset` wrapping the
rows: ``SKY(R~)`` and ``SKY(R0)``, each kept by one
:class:`~repro.updates.incremental.IncrementalSkyline`.  Adaptive SFS is
a score-ordered view over the first; the IPO-tree and the MDC filter
are built from one condition store computed from both.  One method
(``_install``) builds that state: at construction when any index is
on (a service with every index off builds it on its first write), on
recovery from the persisted member ids, and at compaction.

Every write is one WAL record (``insert`` / ``delete`` / ``compact``,
stamped with the next data version) and one method applies it,
:meth:`SkylineService.apply_record`: :meth:`insert_rows`,
:meth:`delete_rows` and :meth:`compact` build a record and take it,
recovery replays its WAL tail through it, and a replication follower
applies shipped frames through it.  It stages the batch (validated,
no state touched), logs it when a store is attached, applies it, and
lets the indexes catch up (rebuilt while below the churn gate).
Recovery attaches neither its store nor any index until the tail is
replayed, so it logs nothing twice and builds the indexes once.  A
writer-preferring read-write lock keeps queries concurrent with each
other while writes run exclusively.  Semantic-cache entries are
*revised* per batch under a data version counter: inserts patch every
cached skyline in place with the batch's ``SKY(R~)`` entrants alone
(exact by Theorem 1), deletes drop exactly the entries whose skyline
held a departed member, and answers computed against a superseded
version are fenced out of the cache.

The answer of every route is the identical skyline id set (Theorem 1
guarantees the index routes search inside ``SKY(R~)`` without losing
members); the equivalence suite in ``tests/test_serve_service.py``
enforces this across randomized preferences.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro import faults
from repro.adaptive.adaptive_sfs import AdaptiveSFS
from repro.algorithms.sfs import sfs_skyline
from repro.core.dataset import Dataset
from repro.core.dominance import RankTable
from repro.core.preferences import (
    ImplicitPreference,
    Preference,
    canonical_cache_key,
)
from repro.core.skyline import skyline
from repro.engine import get_backend, resolve_backend
from repro.exceptions import (
    EngineError,
    ReproError,
    StorageError,
    StorageUnavailable,
)
from repro.ipo.tree import IPOTree
from repro.mdc.filter import MDCFilter
from repro.mdc.mdc import ConditionStore
from repro.serve.cache import CacheStats, SemanticCache
from repro.storage.snapshot import (
    dataset_state,
    preference_from_dict,
    preference_to_dict,
    restore_dataset,
)
from repro.storage.store import CheckpointPolicy, DurableStore
from repro.updates.dataset import DynamicDataset
from repro.updates.incremental import IncrementalSkyline, admit
from repro.updates.rwlock import ReadWriteLock
from repro.serve.planner import (
    ROUTES,
    Plan,
    Planner,
    PlannerConfig,
    PlanSignals,
    RouteCounters,
    chains_covered,
)


@dataclass(frozen=True)
class _RestoreState:
    """Everything :meth:`SkylineService.recover` hands the constructor.

    ``dynamic`` is the dataset at the *snapshot* version; ``tail`` the
    committed WAL records to replay on top of it (in order).  The
    maintained skyline id lists let the restore path skip the
    from-scratch computations; ``None`` for either means "recompute"
    (a snapshot of an index-off service taken before its first write
    has no maintainers yet).  ``store`` is
    ``None`` for a storage-less restore (a replication follower
    rebuilding from a shipped snapshot document): the service then
    applies records without logging them.
    """

    store: Optional[DurableStore]
    dynamic: DynamicDataset
    template_skyline: Optional[Tuple[int, ...]]
    base_skyline: Optional[Tuple[int, ...]]
    tail: Tuple[dict, ...]
    gate_updates: int
    gate_queries: int


def _as_id_tuple(ids) -> Optional[Tuple[int, ...]]:
    """JSON id list -> int tuple, passing ``None`` (= recompute) through."""
    return tuple(int(i) for i in ids) if ids is not None else None


@dataclass(frozen=True)
class ServeResult:
    """One served query: the answer plus how it was produced."""

    ids: Tuple[int, ...]
    #: One of the planner ROUTES, or the virtual routes "cache" (served
    #: from the semantic cache) / "batch" (deduplicated inside a batch).
    route: str
    reason: str
    cached: bool
    seconds: float
    key: Hashable
    #: Data version the answer reflects (0 until the first mutation;
    #: cached answers report the version the cache is serving).
    version: int = 0

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class UpdateReport:
    """One applied mutation batch: ids, skyline delta, cache accounting."""

    kind: str
    point_ids: Tuple[int, ...]
    #: Data version after the batch.
    version: int
    #: Template-skyline members that entered / left because of the batch.
    skyline_entered: Tuple[int, ...]
    skyline_evicted: Tuple[int, ...]
    #: Semantic-cache revision outcome (entries kept / rewritten / dropped).
    cache_retained: int
    cache_patched: int
    cache_invalidated: int
    seconds: float

    def __len__(self) -> int:
        return len(self.point_ids)


@dataclass(frozen=True)
class BatchReport:
    """One evaluated batch: per-query results plus dedup accounting.

    ``results`` is positional (``results[i]`` answers
    ``preferences[i]``).  ``unique_queries`` counts distinct canonical
    keys in the batch; ``duplicate_queries`` the submissions answered
    by sharing another submission's execution; ``cache_hits`` the
    unique keys served straight from the semantic cache.
    """

    results: Tuple[ServeResult, ...]
    unique_queries: int
    duplicate_queries: int
    cache_hits: int
    seconds: float

    def __len__(self) -> int:
        return len(self.results)

    @property
    def executed_queries(self) -> int:
        """Unique keys that actually ran a route this batch."""
        return self.unique_queries - self.cache_hits


@dataclass(frozen=True)
class ServiceStats:
    """A snapshot of the service counters for reporting."""

    queries: int
    route_counts: Dict[str, int]
    cache: CacheStats
    #: Rows inserted + deleted since construction (0 for a static service).
    updates: int = 0
    #: Write-path health: ``"healthy"`` or ``"degraded"`` (read-only).
    health: str = "healthy"
    #: Times the service entered degraded read-only mode.
    degraded_transitions: int = 0
    #: Times a successful checkpoint re-armed the write path.
    recoveries: int = 0
    #: Automatic checkpoints that failed (the mutation still succeeded).
    checkpoint_failures: int = 0

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering used by the workload reports."""
        return {
            "queries": self.queries,
            "routes": dict(self.route_counts),
            "cache": self.cache.as_dict(),
            "updates": self.updates,
            "health": {
                "state": self.health,
                "degraded_transitions": self.degraded_transitions,
                "recoveries": self.recoveries,
                "checkpoint_failures": self.checkpoint_failures,
            },
        }


class SkylineService:
    """Preference-query serving over one dataset + template.

    Parameters
    ----------
    dataset, template:
        The data and the template ``R~`` every served preference must
        refine (``None`` = empty template, i.e. any preference).
    backend:
        Execution backend for index construction and the kernel route
        (name, instance or ``None`` for the process default).
    planner_config:
        Decision-rule thresholds; see :class:`PlannerConfig`.
    cache_capacity:
        LRU capacity of the semantic result cache (0 disables it).
    with_tree:
        ``"auto"`` (default) builds the IPO-tree only when its estimated
        node count stays below ``max_tree_nodes``; ``True``/``False``
        force/skip it.
    ipo_k:
        Optional IPO Tree-k truncation (materialise only the ``k`` most
        frequent values per nominal attribute).
    with_mdc, with_adaptive:
        Build the MDC filter / Adaptive SFS index (both default on; the
        planner only routes to structures that exist).
    storage_dir:
        Directory for durable state (``None`` = in-memory only).  On
        construction the directory must be fresh (recover an existing
        one with :meth:`recover`); an initial snapshot is written
        immediately and every ``insert_rows`` / ``delete_rows`` /
        ``compact`` batch is appended to a write-ahead log and fsync'd
        before the call returns.  See ``docs/storage.md``.
    checkpoint_every, checkpoint_wal_bytes:
        Automatic checkpoint policy: fold the WAL into a fresh snapshot
        after this many logged batches / once the WAL reaches this many
        bytes (``None``/``None`` = only explicit :meth:`checkpoint`
        calls).

    Examples
    --------
    >>> from repro.core.attributes import Schema, nominal, numeric_min
    >>> from repro.core.dataset import Dataset
    >>> from repro.core.preferences import Preference
    >>> schema = Schema([numeric_min("Price"), nominal("G", ["T", "H", "M"])])
    >>> data = Dataset(schema, [(10, "T"), (8, "H"), (12, "M"), (9, "T")])
    >>> service = SkylineService(data, cache_capacity=8)
    >>> first = service.query(Preference({"G": "H < *"}))
    >>> second = service.query(Preference({"G": "H"}))   # same partial order
    >>> first.ids == second.ids and second.cached
    True
    """

    def __init__(
        self,
        dataset: Dataset,
        template: Optional[Preference] = None,
        *,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_tree: object = "auto",
        ipo_k: Optional[int] = None,
        max_tree_nodes: int = 50_000,
        with_mdc: bool = True,
        with_adaptive: bool = True,
        storage_dir: Optional[object] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_wal_bytes: Optional[int] = None,
        _restore: Optional[_RestoreState] = None,
    ) -> None:
        started = time.perf_counter()
        self.dataset = dataset
        self.template = template if template is not None else Preference.empty()
        self.template.validate_against(dataset.schema)
        self.backend = resolve_backend(backend)
        # The bit-parallel scan route: only the vectorized (numpy)
        # tier of the bitset backend out-scans the plain kernel, so
        # the route stays off on python-int-only hosts.
        self.bitset = None
        try:
            candidate = (
                self.backend
                if self.backend.name == "bitset"
                else resolve_backend("bitset")
            )
        except EngineError:  # pragma: no cover - registry always has it
            candidate = None
        if candidate is not None and candidate.vectorized:
            self.bitset = candidate
        self.planner = Planner(planner_config)
        self.cache = SemanticCache(cache_capacity)
        self._lock = threading.Lock()
        self._routes = RouteCounters()
        self._queries = 0
        # Write-path health machine: "healthy" <-> "degraded".  Guarded
        # by self._lock (readers poll from other threads); transitions
        # only ever happen under the exclusive write lock.
        self._health_state = "healthy"
        self._degraded_transitions = 0
        self._recoveries = 0
        self._checkpoint_failures = 0
        self._ipo_k = ipo_k
        # The maintained state (see _install): built at construction
        # when any index is on, else by the first insert/delete.
        self._rw = ReadWriteLock()
        self.storage: Optional[DurableStore] = None
        self._dynamic: Optional[DynamicDataset] = None
        self._maintainer: Optional[IncrementalSkyline] = None
        self._base_maintainer: Optional[IncrementalSkyline] = None
        self._updates = 0
        # Churn-gate window: recent updates/queries with halving decay,
        # reset by refresh_structures()/compact() so regime changes
        # (and explicit re-alignments) move the ratio promptly instead
        # of being damped by the whole service history.
        self._gate_updates = 0
        self._gate_queries = 0
        # The IPO-tree and the MDC filter lag the data: set by a
        # skyline-changing batch, cleared by _rebuild_indexes_locked
        # (which _catch_up_locked runs below the churn gate).
        self._indexes_stale = False
        # Per-cached-key rank tables for the insert patcher, memoised
        # for the service lifetime: a table depends only on the
        # immutable (key, schema) pair, so recompiling per batch would
        # redo identical work inside the write lock.  Mutated only
        # under that lock; bounded below.
        self._patch_tables: Dict[Hashable, RankTable] = {}

        if self.backend.vectorized:
            # Warm the lazy columnar store once, before worker threads
            # can race to build it.
            dataset.columns

        self.tree: Optional[IPOTree] = None
        self.adaptive: Optional[AdaptiveSFS] = None
        self.mdc: Optional[MDCFilter] = None
        self._template_skyline_size = 0
        with_tree = self._should_build_tree(with_tree, ipo_k, max_tree_nodes)
        if _restore is not None:
            self._gate_updates = _restore.gate_updates
            self._gate_queries = _restore.gate_queries
            self._install(
                _restore.dynamic,
                template_skyline=_restore.template_skyline,
                base_skyline=_restore.base_skyline,
                with_adaptive=with_adaptive,
            )
            # The committed tail goes through the one write path before
            # any store is attached (the records are durable already, so
            # nothing is logged) and before any index exists (so no
            # record rebuilds one).
            for record in _restore.tail:
                self.apply_record(record)
        elif with_tree or with_mdc or with_adaptive:
            self._install(
                DynamicDataset.from_dataset(dataset),
                with_adaptive=with_adaptive,
            )
        if self._dynamic is not None:
            self._rebuild_indexes_locked(
                with_tree=with_tree, with_mdc=with_mdc
            )

        # Durability: attach the store last so the initial snapshot sees
        # fully built structures.  A recovered service may *borrow* its
        # base rows from an mmap'd snapshot sidecar; the service owns
        # that file handle and releases it in close() (compaction may
        # drop the dataset's use of the store earlier, but the handle
        # stays ours to close).
        self._borrowed_store = (
            _restore.dynamic.base_store if _restore is not None else None
        )
        if _restore is not None:
            self.storage = _restore.store
        elif storage_dir is not None:
            store = DurableStore(
                storage_dir,
                CheckpointPolicy(checkpoint_every, checkpoint_wal_bytes),
            )
            if store.has_state():
                raise StorageError(
                    f"storage directory {store.directory} already holds "
                    f"recoverable state; use SkylineService.recover() "
                    f"instead of constructing over it"
                )
            store.checkpoint(self._durable_state(), self._data_version())
            self.storage = store
        self.preprocessing_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(
        self,
        preference: Optional[Preference] = None,
        *,
        use_cache: bool = True,
        route: Optional[str] = None,
    ) -> ServeResult:
        """Serve one preference query.

        ``route`` overrides the planner for this call only (used by the
        equivalence tests and for operator debugging).  A forced route
        must actually *execute* - the semantic cache is not consulted
        (serving a cached answer would mask the structure under
        investigation) and no plan signals are gathered (they would
        touch the structures the force bypasses) - but the fresh answer
        is still stored for subsequent planned queries, *unless* the
        forced structure is currently marked stale (after churn):
        that answer may be outdated yet carries the current data
        version, so storing it would poison the revised cache.
        ``use_cache=False`` skips both lookup and store (counted as a
        bypass).
        """
        started = time.perf_counter()
        key = canonical_cache_key(
            self.dataset.schema, preference, self.template
        )
        forced = (
            route if route is not None else self.planner.config.forced_route
        )
        if not use_cache:
            self.cache.record_bypass()
        with self._rw.read():
            version = self._data_version()
            cache_version = self.cache.version
            if use_cache and forced is None:
                hit = self.cache.lookup(key)
                if hit is not None:
                    self._record("cache")
                    return ServeResult(
                        ids=hit,
                        route="cache",
                        reason="semantic cache hit",
                        cached=True,
                        seconds=time.perf_counter() - started,
                        key=key,
                        version=version,
                    )
            if forced is not None:
                plan = Plan(
                    forced,
                    "forced by caller"
                    if route is not None
                    else "forced by configuration",
                    None,
                )
            else:
                plan = self.planner.plan(self._signals(preference))
            storable = forced is None or not self._route_is_stale(forced)
            ids = self._execute(plan.route, preference)
        if use_cache and storable:
            self.cache.store(key, ids, version=cache_version)
        self._record(plan.route)
        return ServeResult(
            ids=ids,
            route=plan.route,
            reason=plan.reason,
            cached=False,
            seconds=time.perf_counter() - started,
            key=key,
            version=version,
        )

    def evaluate_batch(
        self,
        preferences: Sequence[Optional[Preference]],
        *,
        use_cache: bool = True,
    ) -> List[ServeResult]:
        """Serve a batch of queries in one shared pass.

        Positional: ``result[i]`` answers ``preferences[i]``.  The
        batch path factors the per-query overhead of sequential
        submission into one pass per concern:

        1. **Canonicalize up front** - every preference is turned into
           its canonical cache key first (validating it against the
           schema and template), so duplicates are visible before any
           execution.
        2. **Deduplicate** - submissions sharing a canonical key are
           grouped; each distinct partial order is planned and executed
           at most once per batch.  Duplicate submissions reuse the
           group's answer and are reported with route ``"batch"``.
        3. **One cache pass** - each unique key consults the semantic
           cache exactly once (sequential submission pays one lookup
           per submission).
        4. **Group-by-route execution** - the remaining misses are
           planned (one signal gathering per unique query), grouped by
           planned route and executed group by group, so route state -
           the shared columnar store and that route's index structures
           - stays hot across one group's scan instead of being
           revisited per interleaved submission.  (Each unique query
           still compiles its own rank table; cross-query result reuse
           is the semantic cache's job.)

        With ``use_cache=False`` (freshness-critical traffic) one
        bypass is recorded per *unique* key and nothing is read or
        stored - in-batch dedup is then the only sharing, which is
        exactly what makes batching profitable on hot workloads.

        A configured forced route (``PlannerConfig.forced_route``)
        keeps :meth:`query`'s contract: the semantic cache is not
        consulted and no plan signals are gathered - every unique key
        executes the forced route (duplicates still share that one
        execution; dedup is the batch semantic, not a cache) - but
        fresh answers are still stored for subsequent planned queries
        (again unless the forced structure is marked stale).
        """
        forced = self.planner.config.forced_route
        keys = [
            canonical_cache_key(self.dataset.schema, pref, self.template)
            for pref in preferences
        ]
        groups: Dict[Hashable, List[int]] = {}
        for pos, key in enumerate(keys):
            groups.setdefault(key, []).append(pos)

        results: List[Optional[ServeResult]] = [None] * len(keys)
        pending: List[Tuple[Hashable, Optional[Preference]]] = []
        with self._rw.read():
            lookup_version = self._data_version()
            for key, positions in groups.items():
                pref = preferences[positions[0]]
                if not use_cache:
                    self.cache.record_bypass()
                    pending.append((key, pref))
                    continue
                if forced is not None:
                    # A forced route must actually execute; serving a
                    # cached answer would mask the structure under test.
                    pending.append((key, pref))
                    continue
                started = time.perf_counter()
                hit = self.cache.lookup(key)
                if hit is None:
                    pending.append((key, pref))
                    continue
                self._record("cache")
                results[positions[0]] = ServeResult(
                    ids=hit,
                    route="cache",
                    reason="semantic cache hit (batched lookup pass)",
                    cached=True,
                    seconds=time.perf_counter() - started,
                    key=key,
                    version=lookup_version,
                )

            plans: Dict[Hashable, Plan] = {}
            route_groups: Dict[
                str, List[Tuple[Hashable, Optional[Preference]]]
            ] = {}
            for key, pref in pending:
                plan = (
                    Plan(forced, "forced by configuration", None)
                    if forced is not None
                    else self.planner.plan(self._signals(pref))
                )
                plans[key] = plan
                route_groups.setdefault(plan.route, []).append((key, pref))

            # Execution stays inside the same read section as planning:
            # a writer slipping in between would leave a plan made
            # against fresh structures executing against stale ones,
            # and the answer would carry the *new* data version - a
            # poisoned cache entry the stale-store fence cannot catch.
            version = self._data_version()
            cache_version = self.cache.version
            storable = forced is None or not self._route_is_stale(forced)
            for route in [r for r in ROUTES if r in route_groups]:
                for key, pref in route_groups[route]:
                    started = time.perf_counter()
                    ids = self._execute(route, pref)
                    seconds = time.perf_counter() - started
                    if use_cache and storable:
                        self.cache.store(key, ids, version=cache_version)
                    self._record(route)
                    results[groups[key][0]] = ServeResult(
                        ids=ids,
                        route=route,
                        reason=plans[key].reason,
                        cached=False,
                        seconds=seconds,
                        key=key,
                        version=version,
                    )

        for key, positions in groups.items():
            primary = results[positions[0]]
            assert primary is not None  # every unique key was answered
            for pos in positions[1:]:
                self._record("batch")
                results[pos] = ServeResult(
                    ids=primary.ids,
                    route="batch",
                    reason=f"deduplicated within batch "
                    f"(shares a {primary.route!r} execution)",
                    cached=True,
                    seconds=0.0,
                    key=key,
                    version=primary.version,
                )
        return list(results)  # type: ignore[arg-type]

    def submit_batch(
        self,
        preferences: Sequence[Optional[Preference]],
        *,
        use_cache: bool = True,
    ) -> BatchReport:
        """Evaluate a batch and report the dedup/cache accounting.

        Thin wrapper over :meth:`evaluate_batch` that times the whole
        batch and summarises how much work the batch path shared; the
        driver's batched replay mode and the benchmarks consume this.
        """
        started = time.perf_counter()
        results = self.evaluate_batch(preferences, use_cache=use_cache)
        seconds = time.perf_counter() - started
        unique = len({result.key for result in results})
        hits = sum(1 for result in results if result.route == "cache")
        return BatchReport(
            results=tuple(results),
            unique_queries=unique,
            duplicate_queries=len(results) - unique,
            cache_hits=hits,
            seconds=seconds,
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert_rows(self, rows: Sequence[Sequence[object]]) -> UpdateReport:
        """Insert rows; maintain every structure and the cache incrementally.

        The batch becomes one ``insert`` record on :meth:`apply_record`'s
        path: appended (validated all-or-nothing), absorbed whole by both
        maintainers (Adaptive SFS applies the template effect), and
        every cache entry is *patched in place* with the batch's
        ``SKY(R~)`` entrants (:meth:`_insert_patcher`).  A skyline
        change rebuilds the IPO-tree and the MDC filter below the churn
        gate (``PlannerConfig.incremental_update_ratio``) and leaves
        them stale above it (until :meth:`refresh_structures` or
        :meth:`compact`).
        """
        batch = [list(row) for row in rows]
        if not batch:
            return self._empty_report("insert")
        with self._rw.write():
            return self._apply_locked({
                "op": "insert",
                "version": self._data_version() + 1,
                "rows": batch,
            })

    def delete_rows(self, point_ids: Sequence[int]) -> UpdateReport:
        """Delete rows; maintain every structure and the cache incrementally.

        Rows are tombstoned (ids stay stable until :meth:`compact`).
        The maintainers recompute only the rows the departed members
        shadowed; a cache entry is dropped *only* when its answer held
        a departed ``SKY(R~)`` member.  The batch is one ``delete``
        record on :meth:`apply_record`'s path.
        """
        ids = [int(p) for p in point_ids]
        if not ids:
            return self._empty_report("delete")
        with self._rw.write():
            return self._apply_locked({
                "op": "delete",
                "version": self._data_version() + 1,
                "ids": ids,
            })

    def refresh_structures(self) -> None:
        """Bring any stale index structure back in sync (exclusive).

        Above the churn gate a skyline-changing batch leaves the
        IPO-tree and the MDC filter stale; this rebuilds both so the
        planner may route to them again.  Called by operators at churn
        lulls and by :meth:`compact`.
        """
        with self._rw.write():
            self._refresh_structures_locked()

    def compact(self) -> Dict[int, int]:
        """Compact tombstones away and rebuild id-bearing state.

        Returns the ``{old id: new id}`` remap.  Compaction reassigns
        every point id, so the semantic cache is cleared and the
        structures are rebuilt over the compacted data - this is the
        *periodic* cost that keeps delete tombstones from accumulating;
        steady-state churn is absorbed incrementally.  A no-op for a
        service that was never mutated.
        """
        with self._rw.write():
            self._check_storage_writable_locked()
            version = self._data_version()
            if version == 0:
                return {}
            if self._dynamic.deleted_fraction == 0.0:
                # No tombstones: the id space is unchanged, so the
                # warm cache stays valid; still honour the re-alignment
                # contract (refresh stale structures, reset the gate).
                self._refresh_structures_locked()
                return self._dynamic.compact()  # identity, no version bump
            return self._apply_locked(
                {"op": "compact", "version": version + 1}
            )

    def apply_record(
        self, record: dict
    ) -> Union[UpdateReport, Dict[int, int]]:
        """Apply one durable record through the service's write path.

        ``record`` is a write-ahead-log record stamped with the next
        data version: ``{"op": "insert", "version": v, "rows": [...]}``,
        ``{"op": "delete", "version": v, "ids": [...]}`` or
        ``{"op": "compact", "version": v}``.  Crash recovery replays its
        committed WAL tail through here and a replication follower
        applies every shipped frame through here; :meth:`insert_rows`,
        :meth:`delete_rows` and :meth:`compact` build a record and take
        the same path (:meth:`_apply_locked`).  Returns what those
        methods return: an :class:`UpdateReport`, or the compaction's
        ``{old id: new id}`` remap.  A record that does not continue the
        data version, or fails validation, raises before any state
        changes.
        """
        with self._rw.write():
            return self._apply_locked(record)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        storage_dir,
        *,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_mdc: Optional[bool] = None,
        with_adaptive: Optional[bool] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_wal_bytes: Optional[int] = None,
        mmap: object = None,
    ) -> "SkylineService":
        """Rebuild a service from a storage directory after a crash.

        Loads the newest snapshot, restores the dataset **without
        re-encoding any row** - and, when the snapshot has a ``.npy``
        sidecar and the mmap tier allows (``mmap=`` /
        ``REPRO_MMAP=auto|off|require``), without *decoding* any row
        either: the canonical matrix is mapped read-only and borrowed,
        so cold start is O(WAL tail) and the matrix bytes are shared
        with every other process mapping the same snapshot.  The
        borrowed file handle is released by :meth:`close`.  It then
        re-attaches the maintained template and base skylines from
        their persisted id lists, replays the committed WAL tail through
        :meth:`apply_record`, and only then builds the IPO-tree and the
        MDC filter, from one condition store whatever the tail's length
        - so the recovered service answers at the exact pre-crash data
        version (the kill-and-recover differential test in
        ``tests/test_storage.py`` pins this against a from-scratch
        rebuild).

        The template and ``ipo_k`` are part of the durable state; the
        purely operational knobs (backend, cache capacity,
        checkpoint policy) are re-supplied per deployment.
        ``with_mdc`` / ``with_adaptive`` default to what the persisted
        service had.  Logging resumes onto the recovered WAL, so a
        recovered service is immediately durable again.
        """
        store = DurableStore(
            storage_dir,
            CheckpointPolicy(checkpoint_every, checkpoint_wal_bytes),
        )
        recovered = store.recover(mmap=mmap)
        return cls.from_snapshot(
            recovered.snapshot,
            tail=recovered.tail,
            store=store,
            backend=backend,
            planner_config=planner_config,
            cache_capacity=cache_capacity,
            with_mdc=with_mdc,
            with_adaptive=with_adaptive,
        )

    @classmethod
    def from_snapshot(
        cls,
        document: dict,
        *,
        tail: Sequence[dict] = (),
        store: Optional[DurableStore] = None,
        backend=None,
        planner_config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        with_mdc: Optional[bool] = None,
        with_adaptive: Optional[bool] = None,
    ) -> "SkylineService":
        """Rebuild a service from one snapshot document (+ WAL tail).

        The store-agnostic half of :meth:`recover`, also usable with
        ``store=None``: a replication follower rebuilds its replica
        from the snapshot document the primary ships
        (:meth:`replication_snapshot`) and then applies streamed WAL
        records through :meth:`apply_record` - without a local store,
        records apply but are not logged (the primary already made them
        durable).  With a ``store``, logging resumes onto its
        active WAL exactly as after :meth:`recover`.
        """
        dyn = restore_dataset(document["data"])
        # The service-facing dataset covers the *full slot space* so
        # slot positions coincide with dynamic ids; a recovered service
        # always has a dynamic dataset, and every query path selects
        # live ids through it, so tombstoned slots are never served.
        # The dataset *shares* the restored storage - for an mmap'd
        # snapshot that means zero rows are copied or decoded here.
        base = dyn.base_dataset()
        template = preference_from_dict(document.get("template", {}))
        restore = _RestoreState(
            store=store,
            dynamic=dyn,
            template_skyline=_as_id_tuple(document.get("template_skyline")),
            base_skyline=_as_id_tuple(document.get("base_skyline")),
            tail=tuple(tail),
            gate_updates=int(document.get("gate_updates", 0)),
            gate_queries=int(document.get("gate_queries", 0)),
        )
        return cls(
            base,
            template,
            backend=backend,
            planner_config=planner_config,
            cache_capacity=cache_capacity,
            # Documents written before snapshots stopped carrying the
            # tree have a "tree" entry instead of "with_tree".
            with_tree=bool(
                document.get("with_tree", document.get("tree") is not None)
            ),
            ipo_k=document.get("ipo_k"),
            with_mdc=(
                bool(document.get("with_mdc", True))
                if with_mdc is None
                else with_mdc
            ),
            with_adaptive=(
                bool(document.get("with_adaptive", True))
                if with_adaptive is None
                else with_adaptive
            ),
            _restore=restore,
        )

    def checkpoint(self):
        """Fold the WAL into a fresh snapshot now (exclusive); its path.

        Also available through the automatic policy
        (``checkpoint_every`` / ``checkpoint_wal_bytes``) and on the
        CLI (``python -m repro.serve --storage-dir DIR --checkpoint``).

        A successful checkpoint is also the repair path out of degraded
        read-only mode: the fresh snapshot + rotated WAL re-sync the
        durable state, so the health machine returns to ``healthy`` and
        mutations are accepted again.  A failed checkpoint raises
        :class:`StorageError`, counts as a checkpoint failure, and
        leaves the health state unchanged.
        """
        if self.storage is None:
            raise StorageError(
                "checkpoint() requires a service constructed with "
                "storage_dir=... (or recovered from one)"
            )
        with self._rw.write():
            try:
                path = self.storage.checkpoint(
                    self._durable_state(), self._data_version()
                )
            except StorageError:
                with self._lock:
                    self._checkpoint_failures += 1
                raise
            self._mark_healthy_locked()
            return path

    def close(self) -> None:
        """Release the durable store's file handles (idempotent).

        Mutation durability does not depend on this - every WAL append
        is fsync'd before its batch applies - but long-lived processes
        that construct many services (tests, benchmarks, the follower's
        re-sync loop) must not lean on ``__del__`` for descriptor
        hygiene.  Also releases the borrowed mmap store of a recovered
        service (the whole object graph reading it is retired with the
        service, so queries against a closed mmap-recovered service are
        no longer supported).  A closed owned-storage service keeps
        answering queries; mutations on a stored service raise
        :class:`StorageError` until the store is reattached via
        :meth:`recover`.
        """
        if self.storage is not None:
            self.storage.close()
        if self._borrowed_store is not None:
            self._borrowed_store.close()

    def __enter__(self) -> "SkylineService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # replication source (primary side of WAL shipping)
    # ------------------------------------------------------------------
    def replication_snapshot(self) -> dict:
        """The bootstrap payload a (re-)syncing follower fetches.

        ``document`` is the newest on-disk snapshot (it may lag the
        in-memory state - the WAL stream covers the difference),
        ``version`` its data version (= the stream's base address),
        ``primary_version`` the version served right now.
        """
        if self.storage is None:
            raise StorageError(
                "replication requires a service constructed with "
                "storage_dir=... (or recovered from one) - a "
                "storage-less service has no stream to ship"
            )
        document, version = self.storage.newest_snapshot_document()
        return {
            "version": version,
            "document": document,
            "primary_version": self.version,
        }

    def replication_status(self) -> dict:
        """Primary-side stream status, cheap enough to poll.

        Reads only the newest snapshot's *header*
        (:meth:`~repro.storage.store.DurableStore.newest_snapshot_header`)
        - schema counters, never the payload - so reporting cost does
        not scale with dataset size.  ``checkpoint_lag`` is how many
        versions a freshly syncing follower would have to replay from
        the WAL stream on top of the shipped snapshot.
        """
        if self.storage is None:
            return {"stream": False, "primary_version": self.version}
        try:
            header, base_version = self.storage.newest_snapshot_header()
        except StorageError as exc:
            return {
                "stream": False,
                "primary_version": self.version,
                "error": str(exc),
            }
        data = header.get("data", {})
        return {
            "stream": True,
            "base_version": base_version,
            "primary_version": self.version,
            "checkpoint_lag": max(0, self.version - base_version),
            "snapshot_slots": data.get("slots"),
            "snapshot_dead": data.get("dead"),
        }

    def replication_window(
        self, base_version: int, offset: int, max_bytes: int
    ) -> dict:
        """One offset-addressed window of the WAL stream, JSON-shaped.

        ``{"gone": True, ...}`` means ``base_version`` is no longer the
        active generation (a checkpoint folded it away) and the
        follower must re-sync from :meth:`replication_snapshot`.
        Otherwise ``frames`` carries whole CRC-prefixed WAL lines (as
        ASCII strings) starting at ``offset``, with ``next_offset`` /
        ``end_of_log`` as in
        :meth:`~repro.storage.wal.WriteAheadLog.read_window`.  Fault
        site ``replication.stream``: ``torn`` truncates the last frame
        in flight (the follower must refuse it and re-fetch), ``gone``
        fakes a rotation (forcing a re-sync), ``slow`` delays the read.
        """
        if self.storage is None:
            raise StorageError(
                "replication requires a service constructed with "
                "storage_dir=... (or recovered from one) - a "
                "storage-less service has no stream to ship"
            )
        fault = faults.draw("replication.stream")
        if fault is not None and fault.kind == "slow":
            time.sleep(fault.delay)
        if fault is not None and fault.kind == "gone":
            return {"gone": True, "primary_version": self.version}
        window = self.storage.wal_window(base_version, offset, max_bytes)
        if window is None:
            return {"gone": True, "primary_version": self.version}
        frames = [frame.decode("ascii") for frame in window.frames]
        if fault is not None and fault.kind == "torn" and frames:
            # Cut the final frame mid-record, as a failing link would.
            frames[-1] = frames[-1][: max(1, len(frames[-1]) // 2)]
        return {
            "gone": False,
            "base": base_version,
            "offset": offset,
            "next_offset": window.next_offset,
            "end_of_log": window.end_of_log,
            "frames": frames,
            "primary_version": self.version,
        }

    def _durable_state(self) -> dict:
        """The snapshot document for the current state (lock held).

        Everything recovery needs rides in one document: the dataset's
        full slot state *with canonical encodings*, the template, the
        maintained skyline id lists and which structures were built.
        The indexes themselves are not written: recovery regrows them
        fresh from the maintained skylines, so no staleness flag rides
        along either.  Callers must hold the write lock (or be the
        single-threaded constructor).
        """
        dyn = self._dynamic
        if dyn is None:
            # An index-off service before its first write: serialise
            # through the one authoritative shape (version 0, no
            # tombstones, no maintainers yet).
            data = dataset_state(DynamicDataset.from_dataset(self.dataset))
            maintained = base_sky = None
        else:
            data = dataset_state(dyn)
            maintained = list(self._maintainer.ids)
            base_sky = list(self._base_maintainer.ids)
        with self._lock:
            gate = (self._gate_updates, self._gate_queries)
        return {
            "data": data,
            "template": preference_to_dict(self.template),
            "ipo_k": self._ipo_k,
            "template_skyline": maintained,
            "base_skyline": base_sky,
            # The churn gate's window, so a recovered service keeps
            # routing (and deferring index rebuilds) like this one.
            "gate_updates": gate[0],
            "gate_queries": gate[1],
            "with_tree": self.tree is not None,
            "with_adaptive": self.adaptive is not None,
            "with_mdc": self.mdc is not None,
        }

    def _install(
        self,
        dyn: DynamicDataset,
        *,
        template_skyline: Optional[Sequence[int]] = None,
        base_skyline: Optional[Sequence[int]] = None,
        with_adaptive: bool,
    ) -> None:
        """Build the maintained state over ``dyn``: the one build path.

        Taken at construction (when any index is on), on recovery, at
        compaction and on the first write of a service with every index
        off.  The template and base maintainers are re-attached from
        persisted member ids when given, otherwise computed (the base
        skyline group by group, see :mod:`repro.updates.incremental`);
        Adaptive SFS is a view over the template maintainer.  No index
        is built here: the caller follows with
        :meth:`_rebuild_indexes_locked` (recovery only after replaying
        its WAL tail, so one condition store serves the whole tail).
        Callers hold the write lock (or are the single-threaded
        constructor).
        """
        self._dynamic = dyn
        self._maintainer = IncrementalSkyline(
            dyn,
            None,
            template=self.template,
            backend=self.backend,
            members=template_skyline,
        )
        self._base_maintainer = IncrementalSkyline(
            dyn, None, backend=self.backend, members=base_skyline
        )
        self.adaptive = (
            AdaptiveSFS.over(self._maintainer, self.template)
            if with_adaptive
            else None
        )
        self._template_skyline_size = len(self._maintainer)

    def _rebuild_indexes_locked(
        self, *, with_tree: bool = False, with_mdc: bool = False
    ) -> None:
        """Rebuild the IPO-tree and the MDC filter over the live rows.

        One :class:`~repro.mdc.mdc.ConditionStore` is computed for the
        maintained template skyline, with the maintained base skyline
        as its candidate dominators, so no rebuild scans the base data;
        the tree regrows from it (:meth:`IPOTree.refresh`) and the
        filter wraps it.  ``with_tree`` / ``with_mdc`` build a structure
        the service does not hold yet (construction and recovery).
        Callers hold the write lock (or are the single-threaded
        constructor).
        """
        self._indexes_stale = False
        with_tree = with_tree or self.tree is not None
        with_mdc = with_mdc or self.mdc is not None
        if not (with_tree or with_mdc):
            return
        dyn = self._dynamic
        store = ConditionStore.compute(
            dyn,
            self._maintainer.ids,
            candidates=self._base_maintainer.ids,
            backend=self.backend,
        )
        if self.tree is not None:
            self.tree.refresh(dyn, store)
        elif with_tree:
            self.tree = IPOTree.build(
                dyn,
                self.template,
                values_per_attribute=self._ipo_k,
                backend=self.backend,
                conditions=store,
            )
        if with_mdc:
            self.mdc = MDCFilter(
                dyn, self.template, backend=self.backend, conditions=store
            )

    def _apply_locked(
        self, record: dict
    ) -> Union[UpdateReport, Dict[int, int]]:
        """The one write path: stage, log, apply, catch up (write lock held).

        Durability ordering is write-ahead: the record is staged first
        (validated all-or-nothing, no state touched), then *logged* when
        a store is attached, then applied - so a failed log
        (:class:`StorageUnavailable`, degraded read-only mode) leaves
        nothing applied and the same batch can simply be retried once
        the store heals.  Recovery replays before its store is attached
        and a follower has none, so neither logs a record twice.  After
        the apply step the indexes catch up (:meth:`_catch_up_locked`)
        and the automatic checkpoint policy runs.
        """
        self._check_storage_writable_locked()
        dyn = self._ensure_dynamic()
        stamped = record.get("version")
        if stamped != dyn.version + 1:
            raise StorageError(
                f"record discontinuity: stamped version {stamped!r}, "
                f"data is at version {dyn.version}"
            )
        apply = self._stage(dyn, record)
        self._log_mutation_locked(record)
        result = apply()
        if dyn.version != stamped:
            raise StorageError(
                f"record diverged: stamped version {stamped}, apply "
                f"produced {dyn.version}"
            )
        self._catch_up_locked()
        self._maybe_checkpoint_locked()
        return result

    def _stage(self, dyn: DynamicDataset, record: dict):
        """Validate one record without touching state; its apply step.

        The only place a record's op is decoded.
        """
        started = time.perf_counter()
        op = record.get("op")
        if op == "insert":
            raw, canon = dyn.encode_rows(record["rows"])
            return lambda: self._absorb(
                "insert", dyn.append_encoded(raw, canon), started
            )
        if op == "delete":
            ids = [int(point_id) for point_id in record["ids"]]
            dyn.ensure_deletable(ids)

            def delete() -> UpdateReport:
                dyn.delete(ids)
                return self._absorb("delete", ids, started)

            return delete
        if op == "compact":
            return self._compact_locked
        raise StorageError(f"record has unknown op {op!r}")

    def _compact_locked(self) -> Dict[int, int]:
        """Apply a compaction: new ids, so rebuild and clear the cache."""
        dyn = self._dynamic
        remap = dyn.compact()
        self._install(dyn, with_adaptive=self.adaptive is not None)
        self._rebuild_indexes_locked()
        self.cache.revise(lambda key, ids: None)  # ids were remapped
        self._reset_gate()
        return remap

    def _catch_up_locked(self) -> None:
        """Rebuild stale indexes while below the churn gate (lock held).

        Runs after every applied record.  Above the gate
        (``PlannerConfig.incremental_update_ratio``) the indexes stay
        stale until a later record lands in a lull, or
        :meth:`refresh_structures` / :meth:`compact` rebuild them.
        """
        if (
            self._indexes_stale
            and self._update_ratio()
            < self.planner.config.incremental_update_ratio
        ):
            self._rebuild_indexes_locked()

    def _log_mutation_locked(self, record: dict) -> None:
        """Durably log one *not yet applied* batch (write lock held).

        Called **before** the mutation is applied (write-ahead
        ordering).  No-op without storage.

        If the append fails the service enters **degraded read-only
        mode** instead of fail-stopping the process: nothing was
        applied, queries keep serving the last durable state, and the
        caller sees :class:`StorageUnavailable` (the HTTP layer maps it
        to ``503`` + ``Retry-After``).  A successful
        :meth:`checkpoint` rotates the WAL and re-arms writes; the
        rejected batch can then simply be retried.
        """
        if self.storage is None:
            return
        try:
            self.storage.log(record)
        except StorageError as exc:
            self._enter_degraded_locked()
            raise StorageUnavailable(
                "mutation was not applied: the write-ahead log append "
                "failed and the service is now in degraded read-only "
                "mode; queries keep serving - checkpoint() to repair "
                f"and retry ({exc})"
            ) from exc

    def _maybe_checkpoint_locked(self) -> None:
        """Auto-checkpoint after an applied batch when the policy is due.

        A *failed* automatic checkpoint is absorbed (counted, not
        raised): the batch that triggered it is already durable in the
        WAL, so the mutation succeeded either way and the policy simply
        retries at the next batch.
        """
        if self.storage is None or not self.storage.should_checkpoint():
            return
        try:
            self.storage.checkpoint(
                self._durable_state(), self._data_version()
            )
        except StorageError:
            with self._lock:
                self._checkpoint_failures += 1
        else:
            self._mark_healthy_locked()

    def _enter_degraded_locked(self) -> None:
        """Transition the health machine to degraded (write lock held)."""
        with self._lock:
            if self._health_state != "degraded":
                self._health_state = "degraded"
                self._degraded_transitions += 1

    def _mark_healthy_locked(self) -> None:
        """Re-arm writes after a successful checkpoint (write lock held)."""
        with self._lock:
            if self._health_state == "degraded":
                self._health_state = "healthy"
                self._recoveries += 1

    def _check_storage_writable_locked(self) -> None:
        """Refuse mutations while the service is degraded read-only.

        After a failed WAL append the log may carry a torn tail;
        appending further batches would bury garbage mid-log, so the
        store fail-stops and the service rejects mutations *before
        touching any state* (nothing was applied for the failed batch
        either - logging is write-ahead).  Queries are unaffected;
        :meth:`checkpoint` heals the store and re-arms writes.
        """
        if self.storage is not None and self.storage.failed:
            self._enter_degraded_locked()
            raise StorageUnavailable(
                "mutations are disabled: the service is in degraded "
                "read-only mode after a write-ahead-log failure; "
                "queries keep serving - checkpoint() to repair and "
                "re-arm writes"
            )

    def data_snapshot(self) -> Dataset:
        """The currently served rows as an immutable :class:`Dataset`.

        Positions follow live-id order; before any mutation this is the
        construction dataset itself.
        """
        with self._rw.read():
            if self._data_version() == 0:
                return self.dataset
            return self._dynamic.snapshot()

    @property
    def version(self) -> int:
        """Data version served right now (0 until the first mutation)."""
        with self._rw.read():
            return self._data_version()

    def _data_version(self) -> int:
        """Current data version; callers must hold the read or write lock."""
        return self._dynamic.version if self._dynamic is not None else 0

    def _empty_report(self, kind: str) -> UpdateReport:
        """An empty mutation batch: no version bump, no cache revision.

        Returning early keeps the data version and the cache version in
        lockstep (``DynamicDataset`` does not bump on empty batches, so
        revising the cache would desynchronise the two counters).
        """
        with self._rw.read():
            version = self._data_version()
        return UpdateReport(
            kind=kind,
            point_ids=(),
            version=version,
            skyline_entered=(),
            skyline_evicted=(),
            cache_retained=0,
            cache_patched=0,
            cache_invalidated=0,
            seconds=0.0,
        )

    def _ensure_dynamic(self) -> DynamicDataset:
        """The maintained dataset; write lock must be held.

        Only a service with every index off reaches a write without
        one: its first write installs the maintainers here.
        """
        if self._dynamic is None:
            self._install(
                DynamicDataset.from_dataset(self.dataset),
                with_adaptive=False,
            )
        return self._dynamic

    def _absorb(
        self, kind: str, ids: List[int], started: float
    ) -> UpdateReport:
        """Maintain the skylines, the view and the cache for one batch.

        ``ids`` were just appended or tombstoned; each maintainer takes
        the whole batch.  Only a batch that changed the base or template
        skyline can change an index, so only it marks them stale.  Every
        cached answer lies inside ``SKY(R~)`` (Theorem 1), so the cache
        sees only the batch's ``SKY(R~)`` entrants or departures.
        """
        dyn = self._dynamic
        with self._lock:
            self._updates += len(ids)
            self._gate_updates += len(ids)
            self._decay_gate_locked()
        if kind == "insert":
            effect = self._maintainer.insert(ids)
            base = self._base_maintainer.insert(ids)
            revise = self._insert_patcher(effect.entered)
        else:
            effect = self._maintainer.delete(ids)
            base = self._base_maintainer.delete(ids)
            departed = frozenset(effect.evicted)

            def revise(key, cached):
                return None if departed.intersection(cached) else cached

        if self.adaptive is not None:
            self.adaptive.apply(effect)
        self._template_skyline_size = len(self._maintainer)
        if effect.changed or base.changed:
            self._indexes_stale = True
        retained, patched, invalidated = self.cache.revise(revise)
        return UpdateReport(
            kind=kind,
            point_ids=tuple(ids),
            version=dyn.version,
            skyline_entered=effect.entered,
            skyline_evicted=effect.evicted,
            cache_retained=retained,
            cache_patched=patched,
            cache_invalidated=invalidated,
            seconds=time.perf_counter() - started,
        )

    def _insert_patcher(self, entrants: Sequence[int]):
        """Entry revision function applying an insert batch exactly.

        ``entrants`` are the batch's rows in ``SKY(R~)`` after it; no
        other new row changes a cached answer.  Every cached key ``R'``
        refines the template (else ``canonical_cache_key`` refused it),
        so ``SKY(R')`` lies inside ``SKY(R~)`` (Theorem 1) and no other
        row enters.  Nor does one evict: if a new row ``p`` outside
        ``SKY(R~)`` dominates a cached member ``m`` under ``R'``, some
        ``q`` in ``SKY(R~)`` dominates ``p`` under ``R~``, hence under
        ``R'``, so ``q`` dominates ``m``.  An old ``q`` contradicts
        ``m ∈ SKY(R')``; a new ``q`` is an entrant and evicts ``m``.

        Each entry is patched by the maintainers' insert rule
        (:func:`~repro.updates.incremental.admit`) on a python-backend
        context (free to prepare, unlike a vectorized one over every
        slot), with its rank table compiled once per cached key.
        """
        if not entrants:
            return lambda key, cached: cached
        dyn = self._dynamic
        assert dyn is not None
        rows = dyn.canonical_rows
        schema = self.dataset.schema
        tables = self._patch_tables
        python = get_backend("python")

        def patch(key, cached):
            table = tables.get(key)
            if table is None:
                if len(tables) > max(64, 4 * self.cache.capacity):
                    tables.clear()  # bound the memo under key churn
                pref = Preference(
                    {name: ImplicitPreference(chain) for name, chain in key}
                )
                table = tables[key] = RankTable.compile(schema, pref)
            ctx = python.prepare(rows, table)
            entered, evicted = admit(python, ctx, cached, entrants)
            if not entered:
                return cached
            kept = set(cached).difference(evicted)
            return tuple(sorted(kept.union(entered)))

        return patch

    def _route_is_stale(self, route: str) -> bool:
        """Would ``route`` answer from a structure marked stale?

        The planner never picks a stale route, but *forced* routes
        execute it by design (the force exists to inspect exactly that
        structure) - their possibly-stale answer must then not be
        stored into the versioned cache, where it would pass the
        stale-store fence (it carries the current version) and poison
        subsequent planned queries.  Callers must hold the read lock.
        """
        return route in ("ipo", "mdc") and self._indexes_stale

    def _update_ratio(self) -> float:
        """Recent updates per recent query (the churn-gate signal).

        Computed over the decaying gate window, not the lifetime
        counters: a service that served a million queries before its
        first churn storm must see the ratio rise within
        :data:`GATE_WINDOW` events, and one that absorbed a large
        backfill must return to index routes once queries resume.
        :meth:`refresh_structures` and :meth:`compact` reset the window
        outright - after an explicit re-alignment the planner should
        route to the rebuilt structures immediately.

        With *no* queries in the window there is no latency to protect
        and an eager rebuild is cheap insurance, so the ratio reports
        0.0 - otherwise the very first update of a service's life
        (ratio ``1/max(1, 0)``) would trip the gate and leave the
        indexes stale until an operator intervened.
        """
        with self._lock:
            queries = self._gate_queries
            updates = self._gate_updates
        if queries == 0:
            return 0.0
        return updates / queries

    def _reset_gate(self) -> None:
        """Clear the churn window after an explicit re-alignment."""
        with self._lock:
            self._gate_updates = 0
            self._gate_queries = 0

    def _refresh_structures_locked(self) -> None:
        if self._dynamic is None:
            return
        if self._indexes_stale:
            self._rebuild_indexes_locked()
        self._reset_gate()

    def _signals(self, preference: Optional[Preference]) -> PlanSignals:
        """Gather the cheap cost signals for one query."""
        pref = preference if preference is not None else Preference.empty()
        tree_ok = self.tree is not None and not self._indexes_stale
        return PlanSignals(
            dataset_rows=(
                len(self._dynamic)
                if self._dynamic is not None
                else len(self.dataset)
            ),
            preference_order=pref.order,
            tree_available=tree_ok,
            tree_covers_query=(
                chains_covered(self.tree, preference) if tree_ok else False
            ),
            adaptive_available=self.adaptive is not None,
            affected_members=(
                self.adaptive.affect_count(preference)
                if self.adaptive is not None
                else 0
            ),
            template_skyline_size=self._template_skyline_size,
            mdc_available=self.mdc is not None and not self._indexes_stale,
            backend_vectorized=self.backend.vectorized,
            dimensions=len(self.dataset.schema),
            bitset_available=self.bitset is not None,
            update_query_ratio=self._update_ratio(),
        )

    def _execute(
        self, route: str, preference: Optional[Preference]
    ) -> Tuple[int, ...]:
        """Run one route; every route returns the same sorted id tuple.

        With a maintained dataset the scan routes run over its live
        ids, and ``"adaptive"`` answers from its view of the
        maintained template skyline (exact for any template refinement
        by Theorem 1).  The planner never routes to a stale structure;
        a *forced* stale route answers from the stale structure by design (the
        force exists to inspect exactly that structure) - call
        :meth:`refresh_structures` first when freshness matters.
        """
        if route == "ipo":
            if self.tree is None:
                raise ReproError("route 'ipo' requested but no tree was built")
            return tuple(sorted(self.tree.query(preference)))
        if route == "adaptive":
            if self.adaptive is None:
                raise ReproError(
                    "route 'adaptive' requested but Adaptive SFS is disabled"
                )
            return tuple(self.adaptive.query(preference))
        if route == "mdc":
            if self.mdc is None:
                raise ReproError(
                    "route 'mdc' requested but the MDC filter is disabled"
                )
            return tuple(self.mdc.query(preference))
        if route == "bitset":
            if self.bitset is None:
                raise ReproError(
                    "route 'bitset' requested but the vectorized bitset "
                    "backend is unavailable (NumPy missing)"
                )
            return self._scan(preference, self.bitset)
        if route == "kernel":
            return self._scan(preference, self.backend)
        raise ReproError(f"unknown route {route!r}")

    def _scan(self, preference: Optional[Preference], backend) -> Tuple[int, ...]:
        """Full base-data scan on ``backend``, in the live id space."""
        if self._dynamic is None:
            return skyline(
                self.dataset,
                preference,
                template=self.template,
                backend=backend,
            ).ids
        table = RankTable.compile(
            self.dataset.schema, preference, self.template
        )
        dyn = self._dynamic
        store = dyn.columns if backend.vectorized else None
        return tuple(
            sorted(
                sfs_skyline(
                    dyn.canonical_rows, dyn.ids, table,
                    backend=backend, store=store,
                )
            )
        )

    #: Churn-gate window size: once the recent update + query tallies
    #: exceed this, both are halved, so the ratio tracks the recent
    #: workload with exponentially fading memory of the past.
    GATE_WINDOW = 4096

    def _record(self, route: str) -> None:
        with self._lock:
            self._queries += 1
            self._gate_queries += 1
            self._decay_gate_locked()
            self._routes.record(route)

    def _decay_gate_locked(self) -> None:
        """Halve the gate window once full; caller holds ``_lock``."""
        if self._gate_updates + self._gate_queries > self.GATE_WINDOW:
            self._gate_updates //= 2
            self._gate_queries //= 2

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def template_skyline_size(self) -> int:
        """``|SKY(R~)|`` - the search space of every index route."""
        return self._template_skyline_size

    def available_routes(self) -> Tuple[str, ...]:
        """The executable routes given which structures were built."""
        routes = []
        if self.tree is not None:
            routes.append("ipo")
        if self.adaptive is not None:
            routes.append("adaptive")
        if self.mdc is not None:
            routes.append("mdc")
        if self.bitset is not None:
            routes.append("bitset")
        routes.append("kernel")
        return tuple(routes)

    @property
    def health(self) -> str:
        """Write-path health: ``"healthy"`` or ``"degraded"`` (read-only).

        Degraded means a WAL append failed and mutations are rejected
        with :class:`StorageUnavailable` while queries keep serving;
        a successful :meth:`checkpoint` restores ``"healthy"``.
        """
        with self._lock:
            return self._health_state

    def stats(self) -> ServiceStats:
        """Snapshot of query/route/cache/update counters (thread-safe)."""
        with self._lock:
            queries = self._queries
            routes = self._routes.snapshot()
            updates = self._updates
            health = self._health_state
            degraded_transitions = self._degraded_transitions
            recoveries = self._recoveries
            checkpoint_failures = self._checkpoint_failures
        return ServiceStats(
            queries=queries,
            route_counts=routes,
            cache=self.cache.stats(),
            updates=updates,
            health=health,
            degraded_transitions=degraded_transitions,
            recoveries=recoveries,
            checkpoint_failures=checkpoint_failures,
        )

    def _should_build_tree(
        self, with_tree: object, ipo_k: Optional[int], max_tree_nodes: int
    ) -> bool:
        if with_tree is True:
            return True
        if with_tree is False:
            return False
        if with_tree != "auto":
            raise ReproError(
                f"with_tree must be True, False or 'auto', got {with_tree!r}"
            )
        return self._estimated_tree_nodes(ipo_k) <= max_tree_nodes

    def _estimated_tree_nodes(self, ipo_k: Optional[int]) -> int:
        """Upper bound on the node count: ``prod(k_d + 1)`` per level.

        Each level of the IPO-tree fans out into one child per
        materialised value plus the phi child, so the full tree has at
        most ``prod (k_d + 1)`` leaves and fewer internal nodes than
        leaves times the depth; the product is the cheap O(m') signal
        the auto-build decision needs.
        """
        total = 1
        for dim in self.dataset.schema.nominal_indices:
            spec = self.dataset.schema[dim]
            cardinality = len(spec.domain)  # type: ignore[arg-type]
            k = cardinality if ipo_k is None else min(ipo_k, cardinality)
            total *= k + 1
        return total
