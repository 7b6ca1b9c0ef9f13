"""Smoke test of the benchmark: every workload at toy size, untraced
and traced, plus the refusal to run without the program's sources.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about a minute on two CPUs).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--seed", "3",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


def check_metrics(doc: dict, declared: list[dict]) -> dict:
    assert set(doc["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert doc["metrics"][metric["name"]]["unit"] == metric["unit"]
    return {name: m["value"] for name, m in doc["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_toy_run(workload):
    doc = result(bench("--workload", workload, "--trace", "0", "--toy"))
    values = check_metrics(doc, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values()), values


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_toy_run(workload):
    doc = result(bench("--workload", workload, "--trace", "1", "--toy"))
    values = check_metrics(doc, SPEC["per_layer"])
    assert values["fail_frac"] == 0
    assert values["cli.import_s"] > 0
    if workload == "peta_dp_cold":
        # every solve misses the empty tier and is written to it
        assert values["diskcache.stores"] > 0
        assert values["diskcache.stats_per_store"] > 1
        assert values["dp_nextfailure.solves"] > 0
    if workload == "peta_dp_warm":
        assert values["diskcache.hit_rate"] == 1
        assert values["dp_nextfailure.solves"] == 0
        assert values["dp_makespan.solves"] == 0
    if workload == "static_sweep":
        assert values["dp_nextfailure.solves"] == 0
        assert values["diskcache.misses"] == 0
        assert values["sweep.groups"] == 2
    if workload == "service_jobs":
        assert values["store.hits"] > 0
        assert values["daemon.request_ms.submit"] > 0
        assert values["cached_p50_ms"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
