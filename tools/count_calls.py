"""Count the Python and C function calls of nhmech steps and check runs.

Usage: python tools/count_calls.py [--steps N] [--samples S] [--seed SEED]
                                   [--check-steps T]

For each built-in system it prints the calls per step of one
``solver.evolve`` of N steps (default 200) from the system's acceptance
start, counted with ``sys.setprofile`` after one unprofiled warm-up evolve
of the same length, so one-time caches are filled before the count, and
the Newton iterations per step of that counted evolve, read from its
results.  A Python call is a ``call`` event of the profile hook and a C
call a ``c_call`` event (a builtin function or method; LAPACK's f2py
routines are neither).  The counts are exact and repeat from run to run,
so a change of one call per step shows where time alone cannot resolve
it.  Then, for each
system, it prints the calls of one in-process ``nhmech check`` run
(``cli.main``, stdout captured) on the config ``{"system": {"name": ...},
"initial": <start>, "check": {"samples": S, "seed": SEED,
"trajectory_steps": T}}`` (defaults 40, 0 and 25), again after a warm-up
run.  Last, it prints the calls per element of one in-process ``nhmech
simulate`` run (``cli.main``, stdout captured) on the README's rolling-ball
config with ``steps`` set to N, again after a warm-up run: the step loop,
the momentum pass over the three maps, the summary and the trajectory
table, divided by the N + 1 elements.  Standard library plus nhmech (on
``PYTHONPATH`` or installed).
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

# the acceptance initial states of the seven built-in systems
STARTS = {
    "constrained_particle": {"q0": [0.2, -0.4, 0.1], "q1": [0.25, -0.35, 0.08125]},
    "suslov": {"omega": [0.4, -0.3]},
    "chaplygin_sleigh": {"xi": [0.7, 0.9]},
    "veselova": {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]},
    "rolling_ball": {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0},
    "mobile_robot": {"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07},
    "holonomic_sphere": {"q0": [0.0, 0.0, 1.0], "velocity": [0.4, -0.3, 0.0]},
}

# the README's rolling-ball config, but for its step count
README_BALL = {
    "system": {"name": "rolling_ball",
               "params": {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01}},
    "initial": {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0},
    "solver": {"tol_residual": 1e-10, "max_iters": 50},
    "outputs": {"trajectory": "ball.csv", "summary": "summary.json", "format": "csv"},
}


def count_calls(fn, *args):
    """(Python calls, C calls, result) of ``fn(*args)``, the call of fn itself
    included and the closing ``sys.setprofile(None)`` left out."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"] - 1, result


def step_counts(name, steps):
    """(Python calls, C calls, Newton iterations) per step of an evolve of
    ``steps`` steps of ``name``."""
    from nhmech import models, solver

    p = models.FACTORIES[name]()
    g0 = p.initial_builder(STARTS[name])
    solver.evolve(p, g0, steps)
    python, c, traj = count_calls(solver.evolve, p, g0, steps)
    return python / steps, c / steps, sum(r.iterations for r in traj.results) / steps


def cli_counts(command, config, workdir):
    """(Python, C) calls of one in-process ``nhmech <command>`` run on
    ``config``, after one warm-up run; a run that exits other than 0 is a
    RuntimeError."""
    from nhmech import cli

    path = os.path.join(workdir, f"{config['system']['name']}_{command}_config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    argv = [command, "--config", path, "--out", workdir]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    run()
    python, c, code = count_calls(run)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"nhmech {command} on {config['system']['name']} exited {code}")
    return python, c


def check_counts(name, samples, seed, trajectory_steps, workdir):
    """(Python, C) calls of one ``nhmech check`` run of ``name``."""
    config = {"system": {"name": name}, "initial": STARTS[name],
              "check": {"samples": samples, "seed": seed, "trajectory_steps": trajectory_steps}}
    return cli_counts("check", config, workdir)


def simulate_counts(steps, workdir):
    """(Python, C) calls per element of one ``nhmech simulate`` run of
    ``steps`` steps on the README's rolling-ball config."""
    python, c = cli_counts("simulate", {**README_BALL, "steps": steps}, workdir)
    return python / (steps + 1), c / (steps + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="count_calls", description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--samples", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check-steps", type=int, default=25)
    args = parser.parse_args(argv)
    if min(args.steps, args.samples, args.check_steps) < 1 or args.seed < 0:
        parser.error("--steps, --samples and --check-steps must be >= 1, --seed >= 0")
    width = max(map(len, STARTS))
    print(f"{'system':<{width}}  {'python/step':>11} {'C/step':>9} {'newton/step':>11}")
    for name in STARTS:
        python, c, iters = step_counts(name, args.steps)
        print(f"{name:<{width}}  {python:>11.1f} {c:>9.1f} {iters:>11.3f}")
    print(f"{'check config':<{width}}  {'python':>11} {'C':>9}")
    with tempfile.TemporaryDirectory() as workdir:
        for name in STARTS:
            python, c = check_counts(name, args.samples, args.seed, args.check_steps, workdir)
            print(f"{name:<{width}}  {python:>11} {c:>9}")
        print(f"{'simulate config':<{width}}  {'python/elem':>11} {'C/elem':>9}")
        python, c = simulate_counts(args.steps, workdir)
        print(f"{'rolling_ball':<{width}}  {python:>11.1f} {c:>9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
