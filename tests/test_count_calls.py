"""The call counter in tools/count_calls.py: hand-counted calls, and the
per-step counts it prints for the built-in systems."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_calls.py"
_spec = importlib.util.spec_from_file_location("count_calls", TOOL)
count_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_calls)


def _inner():
    return abs(-1)


def _outer(items):
    _inner()
    len(items)
    return _inner() + max(items)


def test_counts_python_and_c_calls_by_hand():
    # Python: _outer and _inner twice; C: len, abs twice and max
    assert count_calls.count_calls(_outer, [1, 2]) == (3, 4, 3)
    # a builtin called directly is one C call and no Python call
    assert count_calls.count_calls(len, []) == (0, 1, 0)


def test_step_counts_repeat_exactly():
    first = count_calls.step_counts("suslov", 5)
    assert count_calls.step_counts("suslov", 5) == first
    assert first[0] > 0 and first[1] > 0


def test_main_prints_one_row_per_system_in_each_table(capsys):
    argv = ["--steps", "2", "--samples", "1", "--check-steps", "1"]
    assert count_calls.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    names = list(count_calls.STARTS)
    assert len(names) == 7
    assert rows[0].split() == ["system", "python/step", "C/step"]
    assert [r.split()[0] for r in rows[1:8]] == names
    assert rows[8].split() == ["check", "config", "python", "C"]
    assert [r.split()[0] for r in rows[9:16]] == names
    for row in rows[9:16]:
        assert all(int(value) > 0 for value in row.split()[1:])
    assert rows[16].split() == ["simulate", "config", "python/elem", "C/elem"]
    assert len(rows) == 18 and rows[17].split()[0] == "rolling_ball"
    assert all(float(value) > 0 for value in rows[17].split()[1:])


def test_simulate_counts_repeat_exactly(tmp_path):
    first = count_calls.simulate_counts(3, str(tmp_path))
    assert count_calls.simulate_counts(3, str(tmp_path)) == first
    assert first[0] > 0 and first[1] > 0


# Python + C calls per step of a 200-step evolve before each candidate was
# evaluated once (tools/count_calls.py); no system may make more
CALLS_PER_STEP_BOUND = {"constrained_particle": 178.1, "suslov": 138.1, "chaplygin_sleigh": 161.9,
                        "veselova": 294.2, "rolling_ball": 256.2, "mobile_robot": 201.2,
                        "holonomic_sphere": 195.1}


def test_calls_per_step_stay_at_or_below_the_bound():
    for name, bound in CALLS_PER_STEP_BOUND.items():
        python, c = count_calls.step_counts(name, 200)
        assert python + c <= bound, name
