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


def test_step_counts_take_newton_iterations_from_the_counted_evolve():
    from nhmech import models, solver

    p = models.FACTORIES["veselova"]()
    traj = solver.evolve(p, p.initial_builder(count_calls.STARTS["veselova"]), 20)
    iterations = sum(r.iterations for r in traj.results) / 20
    assert count_calls.step_counts("veselova", 20)[2] == iterations > 1
    assert count_calls.step_counts("suslov", 5)[2] == 0.0


def test_main_prints_one_row_per_system_in_each_table(capsys):
    argv = ["--steps", "2", "--samples", "1", "--check-steps", "1"]
    assert count_calls.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    names = list(count_calls.STARTS)
    assert len(names) == 7
    assert rows[0].split() == ["system", "python/step", "C/step", "newton/step"]
    assert [r.split()[0] for r in rows[1:8]] == names
    # two steps of the particle take one iteration each, Suslov's none
    assert [r.split()[3] for r in rows[1:3]] == ["1.000", "0.000"]
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


# Python + C calls per step of a 200-step evolve (tools/count_calls.py) once
# each candidate was evaluated once, the rolling ball, the holonomic sphere
# and Veselova started their steps from a root predicted from the last four
# root displacements, and a fresh Lie-group frame evaluated g whole for its
# right test instead of also taking H(g) alone; no system may make more
CALLS_PER_STEP_BOUND = {"constrained_particle": 161.11, "suslov": 122.155,
                        "chaplygin_sleigh": 140.315, "veselova": 246.05, "rolling_ball": 184.35,
                        "mobile_robot": 181.225, "holonomic_sphere": 153.24}
STEPS = 200


def test_calls_per_step_stay_at_or_below_the_bound():
    for name, bound in CALLS_PER_STEP_BOUND.items():
        python, c, _ = count_calls.step_counts(name, STEPS)
        # compared as whole calls over the run, so no float rounding of the
        # per-step values lets one more call through or fails an equal count
        assert round(STEPS * (python + c)) <= round(STEPS * bound), name
