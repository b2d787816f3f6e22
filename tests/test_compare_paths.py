"""The path recorder in tools/compare_paths.py: a recording holds every
system's states, multipliers and condition estimates, is made at the step
tolerance asked for, compares equal to itself, and a moved coordinate shows
in its system's row and the exit status."""

import importlib.util
import math
import pathlib

import numpy as np
import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_paths.py"
_spec = importlib.util.spec_from_file_location("compare_paths", TOOL)
compare_paths = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_paths)


def test_record_holds_every_system_and_field():
    from nhmech import models

    steps = 3
    arrays = compare_paths.record(steps)
    names = list(compare_paths.STARTS)
    assert len(names) == 7
    assert sorted(arrays) == sorted(f"{n}/{f}" for n in names for f in compare_paths.FIELDS)
    for name in names:
        p = models.FACTORIES[name]()
        assert arrays[f"{name}/states"].shape == (steps + 1, len(p.coord_names))
        assert arrays[f"{name}/multipliers"].shape == (steps, p.k)
        assert arrays[f"{name}/cond"].shape == (steps,)


def test_tolerance_option_records_with_that_tolerance(tmp_path, capsys, monkeypatch):
    from nhmech import solver

    tolerances, evolve = [], solver.evolve

    def recording_evolve(p, g0, n_steps, options=None):
        tolerances.append(options.tol_residual)
        return evolve(p, g0, n_steps, options)

    monkeypatch.setattr(solver, "evolve", recording_evolve)
    default, tight = str(tmp_path / "default.npz"), str(tmp_path / "tight.npz")
    assert compare_paths.main(["record", default, "--steps", "2"]) == 0
    assert tolerances == [solver.SolverOptions().tol_residual] * 7
    del tolerances[:]
    assert compare_paths.main(["record", tight, "--steps", "2", "--tol-residual", "1e-16"]) == 0
    assert tolerances == [1e-16] * 7
    # a reference solved to the roundoff floor is compared as any recording
    assert compare_paths.main(["compare", tight, tight]) == 0
    capsys.readouterr()
    for bad in ("-1e-12", "nan"):
        with pytest.raises(SystemExit):
            compare_paths.main(["record", tight, "--tol-residual", bad])
    assert "--tol-residual must be >= 0" in capsys.readouterr().err


def test_difference_counts_equal_non_finite_values_as_zero():
    a = np.array([1.0, math.nan, math.inf, -2.0])
    assert compare_paths.difference(a, a.copy()) == 0.0
    b = np.array([1.0, math.nan, math.inf, -2.5])
    assert compare_paths.difference(a, b) == 0.5
    assert compare_paths.difference(a, b, relative=True) == 0.25


def test_compare_finds_a_moved_coordinate(tmp_path, capsys):
    first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
    assert compare_paths.main(["record", first, "--steps", "2"]) == 0
    assert compare_paths.main(["compare", first, first]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["system", "steps", "states", "multipliers", "cond(rel)"]
    assert [r.split()[0] for r in rows[1:]] == sorted(compare_paths.STARTS)
    assert all(r.split()[1:] == ["2", "0.000e+00", "0.000e+00", "0.000e+00"] for r in rows[1:])

    with np.load(first) as recorded:
        moved = dict(recorded)
    moved["suslov/states"][2, 4] += 1e-9
    np.savez(second, **moved)
    assert compare_paths.main(["compare", first, second]) == 1
    rows = {r.split()[0]: r.split()[1:] for r in capsys.readouterr().out.splitlines()[1:]}
    assert float(rows["suslov"][1]) > 1e-10
    assert all(float(rows[n][1]) == 0.0 for n in rows if n != "suslov")

    del moved["veselova/cond"]
    np.savez(second, **moved)
    assert compare_paths.main(["compare", first, second]) == 1
    rows = {r.split()[0]: r for r in capsys.readouterr().out.splitlines()[1:]}
    assert rows["veselova"].endswith("missing from one recording")
