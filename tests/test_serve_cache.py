"""Semantic cache: canonical keys, LRU behaviour, counters, versioning.

Also home of the serving layer's torn-read regression: a thread pool
interleaving ``query`` / ``insert_rows`` / ``delete_rows`` on one
:class:`SkylineService`, where every returned skyline must equal a
from-scratch rebuild at *some* data version.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.attributes import Schema, nominal, numeric_min
from repro.core.preferences import Preference, canonical_cache_key
from repro.exceptions import PreferenceError, RefinementError
from repro.serve.cache import SemanticCache


class TestCanonicalCacheKey:
    def test_equal_objects_equal_keys(self, two_nominal_schema):
        a = Preference({"Hotel-group": "T < M < *"})
        b = Preference.parse("Hotel-group: T < M")
        assert canonical_cache_key(two_nominal_schema, a) == \
            canonical_cache_key(two_nominal_schema, b)

    def test_full_domain_chain_aliases_its_prefix(self, two_nominal_schema):
        full = Preference({"Hotel-group": "T < H < M"})
        prefix = Preference({"Hotel-group": "T < H"})
        assert canonical_cache_key(two_nominal_schema, full) == \
            canonical_cache_key(two_nominal_schema, prefix)

    def test_different_orders_different_keys(self, two_nominal_schema):
        a = Preference({"Hotel-group": "T < H"})
        b = Preference({"Hotel-group": "H < T"})
        c = Preference({"Hotel-group": "T"})
        keys = {
            canonical_cache_key(two_nominal_schema, p) for p in (a, b, c)
        }
        assert len(keys) == 3

    def test_template_inherited_vs_spelled_out(self, two_nominal_schema):
        template = Preference({"Hotel-group": "T < *"})
        inherited = canonical_cache_key(
            two_nominal_schema, Preference({"Airline": "G < *"}), template
        )
        spelled = canonical_cache_key(
            two_nominal_schema,
            Preference({"Airline": "G < *", "Hotel-group": "T < *"}),
            template,
        )
        assert inherited == spelled

    def test_empty_preference_and_none_agree(self, two_nominal_schema):
        assert canonical_cache_key(two_nominal_schema, None) == \
            canonical_cache_key(two_nominal_schema, Preference.empty()) == ()

    def test_single_value_domain_constrains_nothing(self):
        schema = Schema([numeric_min("p"), nominal("only", ["x"])])
        assert canonical_cache_key(
            schema, Preference({"only": "x < *"})
        ) == ()

    def test_key_is_hashable_and_sorted_by_name(self, two_nominal_schema):
        key = canonical_cache_key(
            two_nominal_schema,
            Preference({"Hotel-group": "T", "Airline": "G"}),
        )
        hash(key)
        assert [name for name, _ in key] == ["Airline", "Hotel-group"]

    def test_validates_against_schema(self, two_nominal_schema):
        with pytest.raises(PreferenceError):
            canonical_cache_key(
                two_nominal_schema, Preference({"Nope": "a < *"})
            )
        with pytest.raises(PreferenceError):
            canonical_cache_key(
                two_nominal_schema, Preference({"Hotel-group": "Z < *"})
            )

    def test_non_refining_preference_rejected(self, two_nominal_schema):
        template = Preference({"Hotel-group": "T < *"})
        with pytest.raises(RefinementError):
            canonical_cache_key(
                two_nominal_schema,
                Preference({"Hotel-group": "H < *"}),
                template,
            )


class TestSemanticCache:
    def test_miss_then_hit(self):
        cache = SemanticCache(capacity=4)
        assert cache.lookup("k") is None
        cache.store("k", (1, 2, 3))
        assert cache.lookup("k") == (1, 2, 3)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        cache = SemanticCache(capacity=2)
        cache.store("a", (1,))
        cache.store("b", (2,))
        assert cache.lookup("a") == (1,)   # refreshes "a"
        cache.store("c", (3,))             # evicts "b", the LRU
        assert cache.lookup("b") is None
        assert cache.lookup("a") == (1,)
        assert cache.lookup("c") == (3,)
        assert cache.stats().evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = SemanticCache(capacity=0)
        cache.store("k", (1,))
        assert cache.lookup("k") is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            SemanticCache(capacity=-1)

    def test_bypass_counter(self):
        cache = SemanticCache(capacity=2)
        cache.record_bypass()
        assert cache.stats().bypasses == 1

    def test_stats_delta(self):
        cache = SemanticCache(capacity=2)
        cache.store("a", (1,))
        cache.lookup("a")
        before = cache.stats()
        cache.lookup("a")
        cache.lookup("missing")
        delta = cache.stats().delta(before)
        assert (delta.hits, delta.misses) == (1, 1)

    def test_clear_keeps_counters(self):
        cache = SemanticCache(capacity=2)
        cache.store("a", (1,))
        cache.lookup("a")
        cache.clear()
        assert cache.lookup("a") is None
        assert cache.stats().hits == 1

    def test_concurrent_access_is_consistent(self):
        cache = SemanticCache(capacity=8)
        errors = []

        def worker(tag: int) -> None:
            try:
                for i in range(200):
                    key = (tag, i % 16)
                    cache.store(key, (i,))
                    cache.lookup(key)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.lookups == 800
        assert len(cache) <= 8

    def test_stats_exact_under_thread_pool_hammering(self):
        """Regression: hit/miss/bypass counters stay exact under load.

        Every counter mutation shares the cache's one lock, so after a
        storm of concurrent lookups/stores/bypasses from a
        ThreadPoolExecutor the counters must satisfy exact arithmetic -
        no lost increments, no double counts.  Guaranteed hits use keys
        stored up front into an amply sized cache; guaranteed misses
        use keys that are never stored.
        """
        from concurrent.futures import ThreadPoolExecutor

        workers, rounds = 8, 300
        cache = SemanticCache(capacity=workers * 4)
        for tag in range(workers):
            cache.store(("hot", tag), (tag,))
        barrier = threading.Barrier(workers)

        def hammer(tag: int):
            barrier.wait()  # maximise interleaving
            for i in range(rounds):
                assert cache.lookup(("hot", tag)) == (tag,)
                assert cache.lookup(("never-stored", tag, i)) is None
                cache.record_bypass()
                cache.store(("hot", tag), (tag,))  # refresh, no eviction
            return tag

        with ThreadPoolExecutor(max_workers=workers) as pool:
            assert sorted(pool.map(hammer, range(workers))) == list(
                range(workers)
            )

        stats = cache.stats()
        assert stats.hits == workers * rounds
        assert stats.misses == workers * rounds
        assert stats.bypasses == workers * rounds
        assert stats.lookups == stats.hits + stats.misses
        assert stats.evictions == 0
        assert stats.size == workers
        assert stats.hit_rate == 0.5

    def test_stats_snapshots_consistent_while_hammered(self):
        """stats() taken mid-storm never shows torn counter relations."""
        from concurrent.futures import ThreadPoolExecutor

        cache = SemanticCache(capacity=4)
        stop = threading.Event()

        def mutate():
            i = 0
            while not stop.is_set():
                cache.store(("k", i % 8), (i,))
                cache.lookup(("k", i % 8))
                i += 1

        def observe():
            snapshots = []
            while not stop.is_set():
                snapshots.append(cache.stats())
            return snapshots

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(mutate), pool.submit(mutate)]
            observer = pool.submit(observe)
            import time as _time

            _time.sleep(0.2)
            stop.set()
            for f in futures:
                f.result()
            snapshots = observer.result()

        assert snapshots
        for snap in snapshots:
            assert snap.lookups == snap.hits + snap.misses
            assert 0 <= snap.size <= snap.capacity


class TestVersionedRevision:
    def test_revise_patches_drops_and_retains(self):
        cache = SemanticCache(capacity=8)
        cache.store("keep", (1, 2))
        cache.store("patch", (1, 3))
        cache.store("drop", (4,))

        def fn(key, ids):
            if key == "drop":
                return None
            if key == "patch":
                return (1, 3, 9)
            return ids

        assert cache.revise(fn) == (1, 1, 1)
        assert cache.lookup("keep") == (1, 2)
        assert cache.lookup("patch") == (1, 3, 9)
        assert cache.lookup("drop") is None
        stats = cache.stats()
        assert stats.version == 1
        assert stats.patches == 1
        assert stats.invalidations == 1

    def test_store_rejects_answers_from_a_stale_version(self):
        cache = SemanticCache(capacity=4)
        version = cache.version
        cache.revise(lambda key, ids: ids)  # data moved on
        cache.store("k", (1,), version=version)
        assert cache.lookup("k") is None
        assert cache.stats().stale_stores == 1
        cache.store("k", (2,), version=cache.version)
        assert cache.lookup("k") == (2,)

    def test_unversioned_store_is_always_accepted(self):
        cache = SemanticCache(capacity=4)
        cache.revise(lambda key, ids: ids)
        cache.store("k", (1,))
        assert cache.lookup("k") == (1,)

    def test_fenced_store_counts_stale_only_never_invalidation(self):
        """Regression: losing the store/revise race must not double-count.

        A revise() that drops an entry counts one invalidation; the
        in-flight store that then loses the version fence counts one
        stale store - and nothing else.  The two counters must move
        independently (one event each), not both for the same store.
        """
        cache = SemanticCache(capacity=4)
        cache.store("k", (1,), version=cache.version)
        before = cache.stats()
        # The revise drops the entry (one invalidation)...
        cache.revise(lambda key, ids: None)
        mid = cache.stats()
        assert mid.invalidations == before.invalidations + 1
        assert mid.stale_stores == before.stale_stores
        # ... and the racing store, fenced out, is stale - only stale.
        accepted = cache.store("k", (1,), version=before.version)
        after = cache.stats()
        assert accepted is False
        assert after.stale_stores == mid.stale_stores + 1
        assert after.invalidations == mid.invalidations
        assert after.stores == mid.stores

    def test_store_and_revise_counters_conserve_under_hammering(self):
        """Counter conservation under a store/revise/lookup storm.

        Tracks every call's outcome from the caller side and asserts
        the cache's own counters add up exactly afterwards:
        ``hits + misses`` equals the lookups issued, every store
        attempt landed in exactly one of accepted/stale, and every
        entry a revision examined landed in exactly one of
        retained/patched/invalidated.
        """
        from concurrent.futures import ThreadPoolExecutor

        workers, rounds = 6, 200
        cache = SemanticCache(capacity=64)
        barrier = threading.Barrier(workers)
        totals_lock = threading.Lock()
        totals = {
            "lookups": 0, "stores": 0, "accepted": 0,
            "retained": 0, "patched": 0, "invalidated": 0, "revises": 0,
        }

        def hammer(tag: int):
            rng = random.Random(tag)
            local = dict.fromkeys(totals, 0)
            barrier.wait()
            for i in range(rounds):
                action = rng.random()
                if action < 0.5:
                    # Versioned store racing concurrent revises: read
                    # the version first so some stores lose the fence.
                    version = cache.version
                    if rng.random() < 0.3:
                        cache.revise(lambda key, ids: ids)  # move data on
                        local["revises"] += 1
                    accepted = cache.store(
                        (tag, i % 8), (i,), version=version
                    )
                    local["stores"] += 1
                    local["accepted"] += 1 if accepted else 0
                elif action < 0.8:
                    cache.lookup((tag, rng.randrange(16)))
                    local["lookups"] += 1
                else:
                    outcome = rng.random()
                    retained, patched, invalidated = cache.revise(
                        lambda key, ids: (
                            None if outcome < 0.2
                            else tuple(ids) + (999,) if outcome < 0.5
                            else ids
                        )
                    )
                    local["revises"] += 1
                    local["retained"] += retained
                    local["patched"] += patched
                    local["invalidated"] += invalidated
            with totals_lock:
                for key, value in local.items():
                    totals[key] += value
            return tag

        with ThreadPoolExecutor(max_workers=workers) as pool:
            assert sorted(pool.map(hammer, range(workers))) == list(
                range(workers)
            )

        stats = cache.stats()
        assert stats.hits + stats.misses == totals["lookups"]
        # Every store attempt: accepted xor fenced - no loss, no double.
        assert stats.stores == totals["accepted"]
        assert stats.stores + stats.stale_stores == totals["stores"]
        # Every revised entry: retained xor patched xor invalidated.
        # The identity revises in the store branch only retain, so the
        # captured patch/invalidation outcomes are exhaustive.
        assert stats.patches == totals["patched"]
        assert stats.invalidations == totals["invalidated"]
        assert stats.version == totals["revises"]
        assert (
            stats.revised
            >= totals["retained"] + totals["patched"] + totals["invalidated"]
        )
        # Size accounting: what's in the map is what was stored and
        # neither evicted nor invalidated (refreshing stores re-count).
        assert 0 <= stats.size <= stats.capacity


class TestInterleavedUpdatesAndQueries:
    """The serving layer's no-torn-reads contract under churn."""

    PREF_COUNT = 4
    MUTATIONS = 30

    @pytest.mark.parametrize("mode", ["single", "batch"])
    def test_every_answer_matches_a_rebuild_at_some_version(self, mode):
        """Hammer query/insert_rows/delete_rows; answers stay versioned.

        A mutator thread applies single-row inserts and deletes while
        query threads read continuously (cached and uncached).  The
        body is :meth:`hammer`; this case writes one row per batch.
        """
        self.hammer(mode, batch_rows=(1, 1))

    @pytest.mark.parametrize("mode", ["single", "batch"])
    def test_multi_row_batches_match_a_rebuild_at_some_version(self, mode):
        """The same hammer with 2-5 rows per insert and delete batch, so
        the maintainers and the cache patch absorb whole batches."""
        self.hammer(mode, batch_rows=(2, 5))

    def hammer(self, mode, batch_rows):
        """Run the hammer; ``batch_rows`` bounds the rows per write.

        A mutator thread applies inserts and deletes of ``batch_rows``
        rows while query threads read continuously (cached and
        uncached).  The mutator maintains a shadow copy of the live
        rows and records, per data version, the brute-force skyline of
        every test preference.  Every (preference, answer, version) triple any
        query thread ever observed must equal the recorded rebuild at
        exactly that version - a torn read (a scan overlapping a
        mutation, or a cache entry surviving un-revised) would surface
        as an answer matching *no* version.

        The ``batch`` mode drives ``evaluate_batch`` instead of
        ``query`` - the regression case for plans and executions
        straddling a mutation (they must share one read section, or a
        stale structure's answer gets stamped with the new version and
        poisons the cache).
        """
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.dataset import Dataset
        from repro.core.skyline import skyline
        from repro.datagen import SyntheticConfig, generate
        from repro.datagen.generator import frequent_value_template
        from repro.datagen.queries import generate_preferences
        from repro.serve import SkylineService

        base = generate(
            SyntheticConfig(
                num_points=150, num_numeric=2, num_nominal=2,
                cardinality=4, seed=13,
            )
        )
        extra = generate(
            SyntheticConfig(
                num_points=80, num_numeric=2, num_nominal=2,
                cardinality=4, seed=14,
            )
        )
        template = frequent_value_template(base)
        prefs = generate_preferences(
            base, order=2, count=self.PREF_COUNT, template=template, seed=5
        )
        service = SkylineService(base, template, cache_capacity=32)

        shadow = {i: base.row(i) for i in range(len(base))}
        oracle = {}

        def record(version):
            ordered = sorted(shadow)
            snap = Dataset(base.schema, [shadow[i] for i in ordered])
            oracle[version] = {
                k: tuple(
                    sorted(
                        ordered[pos]
                        for pos in skyline(
                            snap, pref, template=template
                        ).ids
                    )
                )
                for k, pref in enumerate(prefs)
            }

        record(0)
        done = threading.Event()
        barrier = threading.Barrier(4)

        def mutate():
            barrier.wait()
            rng = random.Random(99)
            sizes = random.Random(98)
            try:
                for _ in range(self.MUTATIONS):
                    count = sizes.randint(*batch_rows)
                    if rng.random() < 0.5 and len(shadow) > 20:
                        victims = (
                            rng.sample(sorted(shadow), count) if count > 1
                            else [rng.choice(sorted(shadow))]
                        )
                        report = service.delete_rows(victims)
                        for victim in victims:
                            del shadow[victim]
                    else:
                        rows = [
                            extra.row(rng.randrange(len(extra)))
                            for _ in range(count)
                        ]
                        report = service.insert_rows(rows)
                        shadow.update(zip(report.point_ids, rows))
                    record(report.version)
            finally:
                done.set()

        def query_worker(seed):
            barrier.wait()
            rng = random.Random(seed)
            observed = []
            while not done.is_set():
                use_cache = bool(rng.getrandbits(1))
                if mode == "single":
                    k = rng.randrange(len(prefs))
                    result = service.query(prefs[k], use_cache=use_cache)
                    observed.append((k, result.version, result.ids))
                else:
                    picks = [
                        rng.randrange(len(prefs)) for _ in range(3)
                    ]
                    results = service.evaluate_batch(
                        [prefs[k] for k in picks], use_cache=use_cache
                    )
                    observed.extend(
                        (k, result.version, result.ids)
                        for k, result in zip(picks, results)
                    )
            return observed

        with ThreadPoolExecutor(max_workers=4) as pool:
            mutator = pool.submit(mutate)
            workers = [pool.submit(query_worker, s) for s in (1, 2, 3)]
            mutator.result()
            observations = [obs for w in workers for obs in w.result()]

        assert observations, "query threads never ran"
        torn = [
            (k, version, ids)
            for k, version, ids in observations
            if oracle[version][k] != ids
        ]
        assert not torn, (
            f"{len(torn)} answers matched no rebuild at their version; "
            f"first: {torn[0]}"
        )
        # The storm must actually have interleaved with mutations.
        assert len({version for _k, version, _ids in observations}) > 1
