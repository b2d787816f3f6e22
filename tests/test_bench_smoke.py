"""The benchmark harness at smoke size, traced, as part of the test suite.

``bench/run.py --trace 1`` wraps package functions by name (see
``bench/tracing.py``), so renaming or deleting one of them breaks the traced
benchmark; this test catches that.  The harness's own tests live in
``bench/test_smoke.py`` (run with ``python -m pytest bench``).
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_smoke_run_is_correct_on_every_workload():
    # seed 3, as in bench/test_smoke.py, so that the run's trace files do not
    # overwrite those of a --seed 0 run
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "all", "--smoke",
         "--seed", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert [r["correct"] for r in results] == [True, True, True]
