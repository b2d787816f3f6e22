"""Command line front end: simulate, check and momentum runs from one config.

A single JSON config file names the system, its physical parameters, the
initial element, the step count and the output paths.  The schema is small
and strict; unknown keys anywhere raise :class:`ConfigError` so typos fail
loudly instead of silently running something else.

Exit codes: 0 success, 2 config error, 3 solver failure (singular matrix or
no convergence, with the failing step index in the message), 4 I/O error.
Output files are written to a temporary name and renamed into place, so a
crashed run never leaves a partial trajectory behind.

The post-step passes of ``simulate`` work on the whole trajectory at once:
the element parts are stacked into rows once (``NhProblem.to_rows``), the
worst |phi| is one max over the stacked constraint values, every csv row
after row zero is one format string, and the momentum maps are checked in
blocks (``diagnostics.max_momentum_drift``: the measured changes of
``momentum_drift`` without the predicted ones, which the summary does not
read).
"""

import argparse
import copy
import functools
import inspect
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import diagnostics as dg
from . import models as md
from . import problem as pb
from . import solver as sv
from .errors import (
    ConfigError,
    ConstraintViolationError,
    NhError,
    NoConvergenceError,
    SingularError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_TOP_KEYS = {"system", "initial", "steps", "solver", "outputs", "momentum", "check"}
_SYSTEM_KEYS = {"name", "params"}
_SOLVER_KEYS = {"tol_residual", "max_iters", "cond_limit"}
_OUTPUT_KEYS = {"trajectory", "summary", "report", "format"}
_MOMENTUM_KEYS = {"specs", "tolerance"}
_CHECK_KEYS = {"samples", "seed", "points", "trajectory_steps"}
_FORMATS = ("csv", "json")

DEFAULT_MOMENTUM_TOL = 1e-9
DEFAULT_CHECK_SAMPLES = 8
DEFAULT_CHECK_STEPS = 25


# ---------------------------------------------------------------------------
# Config parsing


def _expect_mapping(value, where):
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return value


def _expect_int(value, where, minimum):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where} must be an integer")
    if value < minimum:
        raise ConfigError(f"{where} must be >= {minimum}")
    return value


def _is_file_name(name):
    """True for a non-empty name that stays inside the output directory."""
    return isinstance(name, str) and name not in ("", ".", "..") and os.path.basename(name) == name


def parse_config(data):
    """Validate a parsed JSON document and return a deep copy of it, so it
    shares no object with the caller's document, with every section present
    and every defaulted setting filled in (``initial`` and ``steps`` are None
    when absent).  The runners read this document."""
    data = copy.deepcopy(_expect_mapping(data, "config"))
    md.check_keys(data, _TOP_KEYS, "config")

    system = _expect_mapping(data.get("system", None), "system")
    md.check_keys(system, _SYSTEM_KEYS, "system")
    name = system.get("name")
    if not isinstance(name, str) or name not in md.FACTORIES:
        known = ", ".join(sorted(md.FACTORIES))
        raise ConfigError(f"system.name must be one of: {known}")
    params = _expect_mapping(system.setdefault("params", {}), "system.params")
    md.check_keys(params, inspect.signature(md.FACTORIES[name]).parameters, "system.params")

    if data.setdefault("initial", None) is not None:
        _expect_mapping(data["initial"], "initial")
    if data.setdefault("steps", None) is not None:
        _expect_int(data["steps"], "steps", minimum=0)

    solver = _expect_mapping(data.setdefault("solver", {}), "solver")
    md.check_keys(solver, _SOLVER_KEYS, "solver")
    for key, value in solver.items():
        if key == "max_iters":
            _expect_int(value, f"solver.{key}", minimum=1)
        else:
            md.number(value, f"solver.{key}", positive=True)

    outputs = _expect_mapping(data.setdefault("outputs", {}), "outputs")
    md.check_keys(outputs, _OUTPUT_KEYS, "outputs")
    for key in ("trajectory", "summary", "report"):
        if key in outputs and not _is_file_name(outputs[key]):
            raise ConfigError(f"outputs.{key} must be a plain file name (no directory part)")
    if outputs.setdefault("format", "csv") not in _FORMATS:
        raise ConfigError("outputs.format must be 'csv' or 'json'")
    traj_name = outputs.setdefault("trajectory", "trajectory." + outputs["format"])
    if traj_name == outputs.setdefault("summary", "summary.json"):
        raise ConfigError(f"outputs.trajectory and outputs.summary are both {traj_name!r}")

    momentum = _expect_mapping(data.setdefault("momentum", {}), "momentum")
    md.check_keys(momentum, _MOMENTUM_KEYS, "momentum")
    if "specs" in momentum:
        specs = momentum["specs"]
        if not isinstance(specs, list) or not all(isinstance(s, str) for s in specs):
            raise ConfigError("momentum.specs must be a list of spec names")
        if len(set(specs)) < len(specs):
            raise ConfigError(f"momentum.specs names a spec more than once: {specs}")
    md.number(momentum.setdefault("tolerance", DEFAULT_MOMENTUM_TOL), "momentum.tolerance",
              positive=True)

    check = _expect_mapping(data.setdefault("check", {}), "check")
    md.check_keys(check, _CHECK_KEYS, "check")
    _expect_int(check.setdefault("samples", DEFAULT_CHECK_SAMPLES), "check.samples", minimum=1)
    _expect_int(check.setdefault("seed", 0), "check.seed", minimum=0)
    _expect_int(check.setdefault("trajectory_steps", DEFAULT_CHECK_STEPS),
                "check.trajectory_steps", minimum=1)
    points = check.setdefault("points", [])
    if not isinstance(points, list):
        raise ConfigError("check.points must be a list of initial-state objects")
    for point in points:
        _expect_mapping(point, "check.points entry")
    return data


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # bytes that are not UTF-8, bad syntax, too long an integer
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    return parse_config(data)


# ---------------------------------------------------------------------------
# Shared plumbing


def build_problem(cfg):
    return md.FACTORIES[cfg["system"]["name"]](**cfg["system"]["params"])


def build_initial(problem, cfg):
    if cfg["initial"] is None:
        raise ConfigError("this command needs an 'initial' section in the config")
    return problem.initial_builder(cfg["initial"])


def _resolve_spec_names(problem, cfg, require=False):
    names = cfg["momentum"].get("specs")
    if names is None:
        names = sorted(problem.momentum_specs)
    unknown = [n for n in names if n not in problem.momentum_specs]
    if unknown:
        known = ", ".join(sorted(problem.momentum_specs)) or "none"
        raise ConfigError(
            f"unknown momentum spec(s) for {problem.name}: "
            f"{', '.join(unknown)} (known: {known})"
        )
    if require and not names:
        raise ConfigError(
            f"system {problem.name} defines no momentum maps; "
            "the momentum command needs at least one"
        )
    return names


def trajectory_table(problem, trajectory):
    """Header and rows for the trajectory file.

    One row per element; the metric cells (iterations, residual norm,
    condition estimate, multipliers) describe the step that PRODUCED the
    row's element and are empty on row zero.
    """
    header = (
        ["step"]
        + list(problem.coord_names)
        + ["iterations", "residual_norm", "cond_estimate"]
        + [f"lambda_{j + 1}" for j in range(problem.k)]
    )
    rows = [[idx] + row for idx, row in enumerate(problem.to_rows(trajectory.elements).tolist())]
    rows[0] += [None] * (3 + problem.k)
    for row, res in zip(rows[1:], trajectory.results):
        row += [
            int(res.iterations),
            float(res.residual_norm),
            float(res.jacobian_condition_estimate),
        ]
        row += res.multipliers.tolist()
    return header, rows


def _table_text(header, rows, fmt):
    """The trajectory file's text.  A csv cell is ``%.17g`` of its value
    (empty for None, which only row zero holds), so each later row takes
    one format string."""
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(["" if c is None else "%.17g" % c for c in row]) for row in rows[:1]]
        line = ",".join(["%.17g"] * len(header))
        lines += [line % tuple(row) for row in rows[1:]]
        return "\n".join(lines) + "\n"
    return json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        newline="",
        dir=directory,
        prefix=os.path.basename(path) + ".",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle as fh:
            fh.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _write_json(path, record):
    _atomic_write(path, json.dumps(record, indent=2, sort_keys=True) + "\n")


def _max_constraint_violation(problem, trajectory):
    if problem.k == 0:
        return 0.0
    return float(np.abs(np.array([problem.phi(g) for g in trajectory.elements])).max())


# ---------------------------------------------------------------------------
# simulate


def run_simulate(cfg, out_dir, verbose=False):
    problem = build_problem(cfg)
    if cfg["steps"] is None:
        raise ConfigError("simulate needs a 'steps' count in the config")
    spec_names = _resolve_spec_names(problem, cfg)
    g0 = build_initial(problem, cfg)
    options = sv.SolverOptions(**cfg["solver"])
    trajectory = sv.evolve(problem, g0, cfg["steps"], options)
    if verbose:
        print(f"solved {trajectory.n_steps} step(s) of {problem.name}", file=sys.stderr)

    outputs = cfg["outputs"]
    summary = {
        "system": problem.name,
        "steps": trajectory.n_steps,
        "trajectory": outputs["trajectory"],
        "final_state": {
            name: float(value)
            for name, value in zip(problem.coord_names, problem.to_row(trajectory.elements[-1]))
        },
        "max_constraint_violation": _max_constraint_violation(problem, trajectory),
    }
    if trajectory.results:
        summary["max_iterations"] = max(r.iterations for r in trajectory.results)
        summary["max_residual_norm"] = max(
            float(r.residual_norm) for r in trajectory.results
        )
    if spec_names:
        specs = [problem.momentum_specs[name] for name in spec_names]
        summary["max_momentum_drift"] = dg.max_momentum_drift(problem, specs, trajectory)

    # a run that fails in the summary leaves no file behind
    header, rows = trajectory_table(problem, trajectory)
    text = _table_text(header, rows, outputs["format"])
    _atomic_write(os.path.join(out_dir, outputs["trajectory"]), text)
    _write_json(os.path.join(out_dir, outputs["summary"]), summary)
    return summary


# ---------------------------------------------------------------------------
# check


def _regularity_entry(label, report):
    """The report's entry; an infinite condition estimate (a guess outside
    the chart or a singular Newton matrix) is None, JSON's null."""
    regular = report.left_nondegenerate and report.right_nondegenerate
    entry = dict(vars(report), point=label, regular=regular)
    if not math.isfinite(entry["jacobian_condition"]):
        entry["jacobian_condition"] = None
    return entry


def run_check(cfg, out_dir, verbose=False):
    problem = build_problem(cfg)
    options = sv.SolverOptions(**cfg["solver"])
    check = cfg["check"]
    samples = problem.sample_states(np.random.default_rng(check["seed"]), check["samples"])

    # the identity element depends on the base point alone: one report per
    # distinct point (a Lie group's samples all share its one point); each
    # sample's frame serves its report and its reversibility step
    entries = []
    identities = {}
    frames = []
    for idx, g in enumerate(samples):
        frames.append(pb.StepFrame(problem, g))
        report = dg.regularity_report(problem, g, frames[-1])
        entries.append(_regularity_entry(f"sample_{idx}", report))
        x = problem.backend.target(g)
        key = np.asarray(x, dtype=float).tobytes()
        if key not in identities:
            identities[key] = dg.regularity_report(problem, problem.backend.identity(x))
        entries.append(_regularity_entry(f"identity_{idx}", identities[key]))
    for idx, point in enumerate(check["points"]):
        g = problem.initial_builder(point)
        problem.assert_on_constraint(g, label=f"check.points[{idx}]")
        entries.append(_regularity_entry(f"point_{idx}", dg.regularity_report(problem, g)))

    rev = dg.reversibility_report(problem, samples, options=options, frames=frames)
    # Structural verdict: the time-reversed system coincides with the original
    # exactly when the Lagrangian is inversion-symmetric and the constraint set
    # is inversion-invariant.  The measured dynamics defect is reported too but
    # does not enter the verdict (a one-sided potential can still happen to
    # produce reversible-looking pairs on the sampled window).
    reversible = bool(rev.lagrangian_symmetric and rev.constraint_invariant)

    g0 = build_initial(problem, cfg) if cfg["initial"] is not None else samples[0]
    trajectory = sv.evolve(problem, g0, check["trajectory_steps"], options)
    # a step that stopped at its roundoff floor matches the transforms only
    # to about that floor, so each gap is held to its own step's stop level
    gaps, matched = [], True
    elements = trajectory.elements
    for g, g_next, res in zip(elements[:-1], elements[1:], trajectory.results):
        plus = sv.legendre_plus(problem, g)
        minus = sv.legendre_minus(problem, g_next)
        gaps.append(float(np.max(np.abs(plus.components - minus.components))))
        matched = matched and gaps[-1] <= 10.0 * max(options.tol_residual, res.floor)
    matching = {
        "steps": len(gaps),
        "max_gap": max(gaps) if gaps else 0.0,
        "mean_gap": float(np.mean(gaps)) if gaps else 0.0,
        "matched": bool(matched),
    }

    report = {
        "system": problem.name,
        "samples": check["samples"],
        "seed": check["seed"],
        "regularity": entries,
        "identity_regular": all(r.left_nondegenerate and r.right_nondegenerate
                                for r in identities.values()),
        "all_points_regular": bool(all(e["regular"] for e in entries)),
        "reversible": reversible,
        "reversibility": vars(rev),
        "legendre_matching": matching,
    }
    report_name = cfg["outputs"].get("report", "check_report.json")
    _write_json(os.path.join(out_dir, report_name), report)
    if verbose:
        print(f"checked {problem.name}: reversible={reversible}", file=sys.stderr)
    report["report"] = report_name
    return report


# ---------------------------------------------------------------------------
# momentum


def momentum_report(problem, spec_names, trajectory, tolerance=DEFAULT_MOMENTUM_TOL):
    """Per-step drift table for each named momentum map.

    measured is the change of the momentum value across the step, predicted
    the value the discrete evolution identity assigns to it; their gap is the
    identity defect and should sit at solver tolerance for true symmetries.
    """
    specs = {}
    worst = 0.0
    drifts = dg.momentum_drift(problem, [problem.momentum_specs[n] for n in spec_names], trajectory)
    for name, pairs in zip(spec_names, drifts):
        rows = []
        max_gap = 0.0
        max_drift = 0.0
        for k, (measured, predicted) in enumerate(pairs):
            gap = abs(measured - predicted)
            rows.append([k + 1, measured, predicted, gap])
            max_gap = max(max_gap, gap)
            max_drift = max(max_drift, abs(measured))
        specs[name] = {
            "max_abs_drift": max_drift,
            "max_identity_gap": max_gap,
            "within_tolerance": max_gap <= tolerance,
            "rows": rows,
        }
        worst = max(worst, max_gap)
    return {
        "specs": specs,
        "max_identity_gap": worst,
        "tolerance": tolerance,
        "within_tolerance": worst <= tolerance,
    }


def run_momentum(cfg, out_dir, verbose=False):
    problem = build_problem(cfg)
    if cfg["steps"] is None:
        raise ConfigError("momentum needs a 'steps' count in the config")
    spec_names = _resolve_spec_names(problem, cfg, require=True)
    g0 = build_initial(problem, cfg)
    trajectory = sv.evolve(problem, g0, cfg["steps"], sv.SolverOptions(**cfg["solver"]))
    report = momentum_report(problem, spec_names, trajectory, cfg["momentum"]["tolerance"])
    report["system"] = problem.name
    report["steps"] = trajectory.n_steps

    report_name = cfg["outputs"].get("report", "momentum_report.json")
    _write_json(os.path.join(out_dir, report_name), report)
    if verbose:
        print(
            f"momentum check on {problem.name}: "
            f"max identity gap {report['max_identity_gap']:.3e}",
            file=sys.stderr,
        )

    record = {key: value for key, value in report.items() if key != "specs"}
    record["specs"] = {
        name: {key: value for key, value in entry.items() if key != "rows"}
        for name, entry in report["specs"].items()
    }
    record["report"] = report_name
    return record


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="nhmech",
        description="Discrete nonholonomic mechanics: simulate, check, momentum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, helptext in (
        ("simulate", "evolve the configured system and write the trajectory"),
        ("check", "regularity sweep, reversibility report and Legendre matching"),
        ("momentum", "per-step momentum drift against the predicted values"),
    ):
        cmd = sub.add_parser(command, help=helptext)
        cmd.add_argument("--config", required=True, help="path to the JSON run config")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--verbose", action="store_true", help="progress notes on stderr")
    return parser


_RUNNERS = {"simulate": run_simulate, "check": run_check, "momentum": run_momentum}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        record = _RUNNERS[args.command](cfg, args.out, verbose=args.verbose)
        print(json.dumps(record, indent=2, sort_keys=True))
        return EXIT_OK
    except (ConfigError, ConstraintViolationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NhError as exc:
        solver_failure = isinstance(exc, (SingularError, NoConvergenceError))
        kind = "solver failure" if solver_failure else "run failed"
        where = f" at step {exc.step_index}" if exc.step_index is not None else ""
        print(f"{kind}{where}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
