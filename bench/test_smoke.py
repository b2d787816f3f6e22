"""Smoke test of the benchmark harness: every workload at a tiny size, with
and without tracing, must print a correct result line carrying exactly the
metrics that BENCHMARK.json declares.

Run with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_reports_declared_metrics(trace, section):
    proc = _run("--workload", "all", "--smoke", "--seed", "3", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == len(SPEC["workloads"])
    assert proc.stdout.splitlines()[-1].startswith("{")
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace:
        assert proc.stdout.count("gate traced_fingerprints_match") == len(results)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ball_cli", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())
