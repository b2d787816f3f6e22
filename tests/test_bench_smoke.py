"""The benchmark harness at smoke size, traced, as part of the test suite.

``bench/run.py --trace 1`` wraps package functions by name (see
``bench/tracing.py``), so renaming or deleting one of them breaks the traced
benchmark; this test catches that.  The harness's own tests live in
``bench/test_smoke.py`` (run with ``python -m pytest bench``).

The run works on a copy of the harness, ``BENCHMARK.json`` and ``src/``
under the test's temporary directory, so its trace files land in the copy's
``bench/out`` and the working tree is left as it was.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_smoke_run_is_correct_on_every_workload(tmp_path):
    os.mkdir(tmp_path / "bench")
    for name in ("run.py", "tracing.py"):
        shutil.copy(os.path.join(ROOT, "bench", name), tmp_path / "bench" / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert [r["correct"] for r in results] == [True, True, True]
    traces = [f"trace-{name}-seed3.json.gz" for name in ("ball_cli", "check_sweep", "systems_long")]
    assert sorted(os.listdir(tmp_path / "bench" / "out")) == traces
