"""Short end-to-end runs of every workload through the real entry point."""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "e2ebench" / "run.py"
WORKLOADS = ("wire-hot", "cold-indexed", "scan-kernel", "churn-durable")


@functools.lru_cache(maxsize=None)
def run(workload, seed=1, trace=0, attempt=0):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    details = next(json.loads(l[len("details "):]) for l in lines if l.startswith("details "))
    return json.loads(lines[-1]), details


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_complete(workload):
    result, _ = run(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {name: unit for name, unit, _b, _x in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    result, _ = run("cold-indexed", trace=1)
    assert result["correct"] is True
    expected = {name: unit for name, unit, _b in metrics.PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["net.codec_ms"] == 0.0  # no wire in process
    assert values["mdc.calls"] > 0 and values["ipo.build_s"] > 0
    assert values["trace.overhead_ratio"] > 0


@pytest.mark.parametrize("workload", ["cold-indexed", "churn-durable"])
def test_same_seed_same_route_shares_and_disk_bytes(workload):
    _, first = run(workload, seed=2)
    _, second = run(workload, seed=2, attempt=1)
    assert first == second


def test_manifest_matches_the_metric_tables():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]] == [
        tuple(row) for row in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == [
        tuple(row) for row in metrics.PER_LAYER
    ]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "cold-indexed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
