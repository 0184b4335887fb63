"""Smoke tests for the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def result_of(child: subprocess.CompletedProcess) -> dict:
    result = json.loads(child.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(metrics: dict, kind: str, prefix: str = "") -> None:
    for spec in SPEC[kind]:
        metric = metrics[prefix + spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float) and metric["value"] == metric["value"]


def test_all_workloads_report_end_to_end_metrics():
    child = run(ROOT, "--workload", "all", "--seed", "3", "--seconds", "0.2", "--size", "tiny")
    assert child.returncode == 0, child.stderr
    result = result_of(child)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= len(WORKLOADS)
    for name in WORKLOADS:
        assert_metrics(result["metrics"], "end_to_end", f"{name}.")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_per_layer_metrics(workload):
    child = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", "1", "--size", "tiny")
    assert child.returncode == 0, child.stderr
    result = result_of(child)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert_metrics(result["metrics"], "per_layer")
    assert (BENCH / "out" / f"spans-{workload}-seed3.jsonl").stat().st_size > 0


def copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_digest_mismatch_fails_the_run(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=True)
    (root / "perfbench" / "digests.json").write_text(json.dumps({"search": "0" * 64}))
    child = run(root, "--workload", "search", "--seed", "0", "--seconds", "0")
    assert child.returncode == 1
    result = result_of(child)
    assert not result["correct"] and result["failed"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_benchmark(tmp_path, with_sources=False)
    child = run(root, "--workload", "corpus", "--seed", "0", "--seconds", "1")
    assert child.returncode != 0
    assert child.stdout == ""
