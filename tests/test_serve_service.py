"""Serving layer end to end: equivalence, caching, driver, CLI."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.preferences import Preference
from repro.datagen.generator import (
    SyntheticConfig,
    frequent_value_template,
    generate,
)
from repro.datagen.queries import generate_preferences
from repro.exceptions import ReproError
from repro.serve import (
    SkylineService,
    WORKLOADS,
    churn_workload,
    hot_workload,
    percentile,
    replay,
)


@pytest.fixture(scope="module")
def dataset():
    return generate(
        SyntheticConfig(
            num_points=300,
            num_numeric=2,
            num_nominal=2,
            cardinality=5,
            seed=11,
        )
    )


@pytest.fixture(scope="module")
def template(dataset):
    return frequent_value_template(dataset)


@pytest.fixture(scope="module")
def service(dataset, template):
    return SkylineService(dataset, template, cache_capacity=32)


class TestRouteEquivalence:
    """Every planner route returns the identical skyline (Theorem 1)."""

    def test_all_routes_agree_on_randomized_preferences(self, service):
        # The bitset scan route rides along wherever NumPy is present
        # (its vectorized tier); the structure routes are always built.
        expected = {"ipo", "adaptive", "mdc", "kernel"}
        if service.bitset is not None:
            expected.add("bitset")
        assert set(service.available_routes()) == expected
        preferences = generate_preferences(
            service.dataset, 2, 12, template=service.template, seed=5
        ) + generate_preferences(
            service.dataset, 4, 6, template=service.template, seed=6
        ) + [None, Preference.empty()]
        for pref in preferences:
            answers = {
                route: service.query(pref, use_cache=False, route=route).ids
                for route in service.available_routes()
            }
            assert len(set(answers.values())) == 1, (
                f"routes disagree for {pref}: "
                f"{ {r: len(ids) for r, ids in answers.items()} }"
            )

    def test_planner_choice_matches_forced_answer(self, service):
        for pref in generate_preferences(
            service.dataset, 3, 5, template=service.template, seed=8
        ):
            planned = service.query(pref, use_cache=False)
            forced = service.query(pref, use_cache=False, route="kernel")
            assert planned.ids == forced.ids

    def test_ids_are_sorted_tuples(self, service):
        result = service.query(None, use_cache=False)
        assert isinstance(result.ids, tuple)
        assert list(result.ids) == sorted(result.ids)


class TestSharedConditions:
    """The tree and the MDC filter share one condition computation."""

    def test_one_mdc_computation_per_construction(
        self, dataset, template, monkeypatch
    ):
        import repro.ipo.tree as tree_module
        import repro.mdc.filter as filter_module
        import repro.mdc.mdc as mdc_module

        calls = []
        real = mdc_module.compute_mdcs

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # Every module binding, whether or not a module imports it today.
        for module in (mdc_module, tree_module, filter_module):
            monkeypatch.setattr(module, "compute_mdcs", spy, raising=False)
        service = SkylineService(dataset, template, cache_capacity=0)
        assert service.tree is not None and service.mdc is not None
        assert len(calls) == 1
        assert service.mdc.skyline_ids == service.tree.skyline_ids
        for pref in generate_preferences(
            dataset, 2, 6, template=template, seed=5
        ):
            assert service.mdc.query(pref) == service.tree.query(pref)

        # Compaction rebuilds both structures over the compacted data,
        # again from one computation.
        service.delete_rows([service.tree.skyline_ids[0]])
        calls.clear()
        service.compact()
        assert len(calls) == 1
        assert service.mdc.skyline_ids == service.tree.skyline_ids
        service.close()


class TestServiceCaching:
    def test_second_identical_query_hits(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        pref = Preference({"nom0": template["nom0"].choices})
        first = service.query(pref)
        second = service.query(pref)
        assert not first.cached and second.cached
        assert second.route == "cache"
        assert first.ids == second.ids

    def test_semantically_equal_spellings_hit(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        # Inherit the template chain vs spell it out: same partial order.
        first = service.query(Preference.empty())
        spelled = Preference(
            {name: pref for name, pref in template.items()}
        )
        second = service.query(spelled)
        assert second.cached
        assert first.ids == second.ids

    def test_use_cache_false_bypasses(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        service.query(None)
        result = service.query(None, use_cache=False)
        assert not result.cached
        stats = service.stats()
        assert stats.cache.bypasses == 1

    def test_forced_route_is_never_served_from_cache(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        warm = service.query(None)          # populates the cache
        forced = service.query(None, route="kernel")
        assert not forced.cached and forced.route == "kernel"
        assert forced.ids == warm.ids
        # ... but the forced answer was stored for planned queries.
        assert service.query(None).cached

    def test_config_forced_route_skips_cache_and_signals(
        self, dataset, template
    ):
        from repro.serve import PlannerConfig

        service = SkylineService(
            dataset,
            template,
            cache_capacity=8,
            planner_config=PlannerConfig(forced_route="mdc"),
        )
        first = service.query(None)
        second = service.query(None)
        assert first.route == second.route == "mdc"
        assert not second.cached
        assert "forced" in second.reason

    def test_template_skyline_size_with_only_mdc(self, dataset, template):
        service = SkylineService(
            dataset,
            template,
            with_tree=False,
            with_adaptive=False,
            cache_capacity=0,
        )
        assert service.template_skyline_size == len(service.mdc.skyline_ids)
        assert service.template_skyline_size > 0

    def test_unknown_route_raises(self, service):
        with pytest.raises(ReproError):
            service.query(None, use_cache=False, route="teleport")

    def test_disabled_route_raises(self, dataset, template):
        service = SkylineService(
            dataset, template, with_tree=False, cache_capacity=0
        )
        with pytest.raises(ReproError):
            service.query(None, route="ipo")

    def test_stats_track_queries(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        service.query(None)
        service.query(None)
        stats = service.stats()
        assert stats.queries == 2
        assert stats.route_counts["cache"] == 1


class TestDriver:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        with pytest.raises(ValueError):
            percentile(values, 150)

    def test_percentile_tail_not_under_reported(self):
        # Regression: on small samples the nearest rank must round *up*
        # (ceil), otherwise p99 collapses onto lower observations.
        values = list(range(1, 11))        # n = 10
        assert percentile(values, 99) == 10     # ceil(9.9) = 10 -> index 9
        assert percentile(values, 91) == 10
        assert percentile(values, 90) == 9
        assert percentile([7.0], 99) == 7.0
        # A single outlier at the tail must surface at p99 for n = 100.
        sample = [1.0] * 99 + [50.0]
        assert percentile(sample, 99) == 1.0    # rank 99 of 100
        assert percentile(sample, 100) == 50.0

    def test_percentile_empty_sequence_raises_value_error(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_replay_reports_are_complete(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=16)
        prefs = hot_workload(
            dataset, template, queries=40, order=2, distinct=4, seed=1
        )
        report = replay(service, prefs, name="hot", concurrency=4)
        assert report.queries == 40
        assert report.throughput_qps > 0
        for key in ("mean", "p50", "p95", "p99", "max"):
            assert report.latencies_ms[key] >= 0
        assert report.latencies_ms["p50"] <= report.latencies_ms["p99"]
        assert sum(report.route_counts.values()) == 40
        assert report.cache.hit_rate > 0
        payload = report.as_dict()
        assert payload["workload"] == "hot"
        json.dumps(payload)  # must be serialisable as-is

    def test_replay_deltas_are_per_run(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=16)
        prefs = hot_workload(
            dataset, template, queries=20, order=2, distinct=2, seed=2
        )
        first = replay(service, prefs, concurrency=2)
        second = replay(service, prefs, concurrency=2)
        assert first.queries == second.queries == 20
        # Second replay starts warm: everything hits.
        assert second.cache.hits == 20
        assert second.route_counts.get("cache") == 20

    def test_concurrent_equals_sequential(self, dataset, template):
        prefs = generate_preferences(
            dataset, 2, 16, template=template, seed=9
        )
        sequential = SkylineService(dataset, template, cache_capacity=16)
        concurrent = SkylineService(dataset, template, cache_capacity=16)
        replay(sequential, prefs, concurrency=1)
        replay(concurrent, prefs, concurrency=8)
        seq_ids = [sequential.query(p).ids for p in prefs]
        con_ids = [concurrent.query(p).ids for p in prefs]
        assert seq_ids == con_ids

    def test_invalid_concurrency(self, service):
        with pytest.raises(ValueError):
            replay(service, [], concurrency=0)


class TestWorkloads:
    def test_shapes_are_deterministic(self, dataset, template):
        for name, generator in WORKLOADS.items():
            a = generator(dataset, template, queries=12, seed=4)
            b = generator(dataset, template, queries=12, seed=4)
            assert a == b, f"workload {name!r} is not seed-deterministic"
            assert len(a) == 12

    def test_churn_defeats_lru_sequentially(self, dataset, template):
        service = SkylineService(dataset, template, cache_capacity=8)
        prefs = churn_workload(
            dataset, template, queries=60, order=3, cache_capacity=8, seed=3
        )
        report = replay(service, prefs, name="churn", concurrency=1)
        assert report.cache.hit_rate == 0.0
        assert report.cache.evictions > 0

    def test_aliased_pairs_share_canonical_keys(self, dataset, template):
        from repro.core.preferences import canonical_cache_key

        prefs = WORKLOADS["aliased"](
            dataset, template, queries=10, distinct=3, seed=5
        )
        keys = [
            canonical_cache_key(dataset.schema, p, template) for p in prefs
        ]
        # Consecutive pairs alias to the same key while at least one
        # pair differs as Preference objects (distinct spellings).
        assert all(keys[i] == keys[i + 1] for i in range(0, len(keys) - 1, 2))
        assert any(
            prefs[i] != prefs[i + 1] for i in range(0, len(prefs) - 1, 2)
        )


SERVE_CLI = [sys.executable, "-m", "repro.serve"]
REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args: str) -> subprocess.CompletedProcess:
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        SERVE_CLI + list(args),
        capture_output=True,
        text=True,
        timeout=600,
        cwd=REPO_ROOT,
        env=env,
    )


class TestCLI:
    def test_selftest_passes(self):
        result = run_cli("--selftest")
        assert result.returncode == 0, result.stderr
        assert "selftest ok" in result.stdout

    def test_replay_reports_all_shapes(self, tmp_path):
        out = tmp_path / "serve.json"
        result = run_cli(
            "--points", "300", "--queries", "30", "--cardinality", "5",
            "--workloads", "hot,cold,churn", "--concurrency", "2",
            "--json", str(out),
        )
        assert result.returncode == 0, result.stderr
        for shape in ("hot", "cold", "churn"):
            assert shape in result.stdout
        payload = json.loads(out.read_text())
        assert len(payload["workloads"]) == 3
        hot = next(w for w in payload["workloads"] if w["workload"] == "hot")
        assert hot["cache"]["hit_rate"] > 0
        for report in payload["workloads"]:
            for key in ("p50", "p95", "p99"):
                assert key in report["latency_ms"]

    def test_unknown_workload_rejected(self):
        result = run_cli("--workloads", "lukewarm")
        assert result.returncode == 2
        assert "unknown workload" in result.stderr

    def test_selftest_honours_backend_flag(self):
        result = run_cli("--selftest", "--backend", "python")
        assert result.returncode == 0, result.stderr
        assert "backend: python" in result.stderr

    def test_selftest_rejects_forced_route(self):
        result = run_cli("--selftest", "--route", "kernel")
        assert result.returncode == 2
        assert "incompatible" in result.stderr
