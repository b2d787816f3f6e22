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
    NUMERIC_FAILURES,
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
_SCALARS = (str, int, float, type(None))  # bool is an int

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
    """True for a non-empty name that stays inside the output directory and
    that the file system can hold (no NUL byte)."""
    return (isinstance(name, str) and name not in ("", ".", "..") and "\x00" not in name
            and os.path.basename(name) == name)


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
    """The validated config of the JSON file at ``path`` (see
    :func:`parse_config`); a document nested too deeply for the decoder or
    for the validation's copy is a ConfigError."""
    try:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except ValueError as exc:  # bytes that are not UTF-8, bad syntax, too long an integer
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        return parse_config(data)
    except RecursionError:
        raise ConfigError(f"{path} nests its values too deeply") from None


# ---------------------------------------------------------------------------
# Shared plumbing


def build_problem(cfg):
    return md.FACTORIES[cfg["system"]["name"]](**cfg["system"]["params"])


def _built(keys, build, *args):
    """``build(*args)``, an element or the samples built from the config
    ``keys``.  An arithmetic or domain error on the way (an overflowing
    value) is a ConfigError naming the keys; a non-finite element comes back
    as it is, for the constraint check to refuse (a NaN |phi| is off the
    constraint set)."""
    try:
        return build(*args)
    except NUMERIC_FAILURES as exc:
        raise ConfigError(f"the element built from {keys}: {exc}") from exc


def build_initial(problem, section):
    """The element built from an initial-state section (``initial`` or a
    ``check.points`` entry)."""
    if section is None:
        raise ConfigError("this command needs an 'initial' section in the config")
    return _built(", ".join(sorted(section)), problem.initial_builder, section)


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
    return _json_text({"columns": header, "rows": rows}) + "\n"


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


def _flat(value):
    """Whether ``value`` is a non-empty dict, list or tuple of JSON scalars."""
    members = value.values() if isinstance(value, dict) else value
    return (isinstance(value, (dict, list, tuple)) and len(value) > 0
            and all(isinstance(m, _SCALARS) for m in members))


def _json_text(value, margin=""):
    """``json.dumps(value, indent=2, sort_keys=True)``, each line after the
    first shifted right by ``margin``, from json's C encoder (json encodes
    in Python whenever ``indent`` is set).

    A JSON string never holds a raw newline, so every ",\\n" of a text is a
    separator.  The C encoder takes each non-empty container of scalars in
    one call, with ",\\n" and the members' indentation as its item separator,
    and each list of such containers of one kind (dicts, or lists and
    tuples) in one call, whose item boundaries are then re-indented.  Other
    lists and dicts with string keys recurse member by member; anything
    else takes json's own indented encoder.
    """
    inner = margin + "  "
    if isinstance(value, _SCALARS):
        return json.dumps(value)
    if _flat(value):
        text = json.dumps(value, sort_keys=True, separators=(",\n" + inner, ": "))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{margin}{text[-1]}"
    if isinstance(value, (list, tuple)) and value:
        for opening, closing, kind in (("{", "}", dict), ("[", "]", (list, tuple))):
            if all(isinstance(m, kind) and _flat(m) for m in value):
                deep = inner + "  "
                text = json.dumps(value, sort_keys=True, separators=(",\n" + deep, ": "))
                body = text[2:-2].replace(f"{closing},\n{deep}{opening}",
                                          f"\n{inner}{closing},\n{inner}{opening}\n{deep}")
                return f"[\n{inner}{opening}\n{deep}{body}\n{inner}{closing}\n{margin}]"
        return "[\n" + ",\n".join(inner + _json_text(m, inner) for m in value) + f"\n{margin}]"
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        members = (f"{inner}{json.dumps(key)}: {_json_text(member, inner)}"
                   for key, member in sorted(value.items()))
        return "{\n" + ",\n".join(members) + f"\n{margin}}}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + margin)


def _write_json(path, record, **stdout):
    """Write ``json.dumps(record, indent=2, sort_keys=True)`` and a newline
    to ``path``, and return that text for ``record`` with the members
    ``stdout`` added or replaced.  Each member is encoded once
    (:func:`_json_text`, shifted two spaces right)."""

    def encoded(members):
        return {key: f"  {json.dumps(key)}: {_json_text(value, '  ')}"
                for key, value in members.items()}

    def document(texts):
        return "{\n" + ",\n".join(texts[key] for key in sorted(texts)) + "\n}"

    written = encoded(record)
    _atomic_write(path, document(written) + "\n")
    return document({**written, **encoded(stdout)})


def _max_constraint_violation(problem, trajectory):
    """max |phi| over the trajectory: phi of its first element, and each
    step's ``max_abs_phi`` for the element it returned."""
    if problem.k == 0:
        return 0.0
    first = float(np.abs(problem.phi(trajectory.elements[0])).max())
    return max([first] + [res.max_abs_phi for res in trajectory.results])


# ---------------------------------------------------------------------------
# simulate


def run_simulate(cfg, out_dir, verbose=False):
    problem = build_problem(cfg)
    if cfg["steps"] is None:
        raise ConfigError("simulate needs a 'steps' count in the config")
    spec_names = _resolve_spec_names(problem, cfg)
    g0 = build_initial(problem, cfg["initial"])
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
    return _write_json(os.path.join(out_dir, outputs["summary"]), summary)


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


def _regularity(problem, label, g, frame):
    """The regularity report of g (on ``frame``, or None).  A report that
    fails outside any step (a pairing that overflows) is a SingularError
    naming the system and the point ``label``."""
    try:
        return dg.regularity_report(problem, g, frame)
    except SingularError as exc:
        raise SingularError(f"{problem.name}: regularity test at {label}: {exc}") from exc


def run_check(cfg, out_dir, verbose=False):
    problem = build_problem(cfg)
    options = sv.SolverOptions(**cfg["solver"])
    check = cfg["check"]
    samples = _built("system.params", problem.sample_states,
                     np.random.default_rng(check["seed"]), check["samples"])

    # the identity element depends on the base point alone: one report per
    # distinct point (a Lie group's samples all share its one point); each
    # sample's frame serves its report and its reversibility step
    entries = []
    identities = {}
    frames = []
    for idx, g in enumerate(samples):
        frames.append(pb.StepFrame(problem, g))
        report = _regularity(problem, f"sample_{idx}", g, frames[-1])
        entries.append(_regularity_entry(f"sample_{idx}", report))
        x = problem.backend.target(g)
        key = x.tobytes()
        if key not in identities:
            unit = problem.backend.identity(x)
            identities[key] = _regularity(problem, f"identity_{idx}", unit, None)
        entries.append(_regularity_entry(f"identity_{idx}", identities[key]))
    for idx, point in enumerate(check["points"]):
        g = build_initial(problem, point)
        problem.assert_on_constraint(g, label=f"check.points[{idx}]")
        report = _regularity(problem, f"point_{idx}", g, None)
        entries.append(_regularity_entry(f"point_{idx}", report))

    rev = dg.reversibility_report(problem, samples, options=options, frames=frames)
    # Structural verdict: the time-reversed system coincides with the original
    # exactly when the Lagrangian is inversion-symmetric and the constraint set
    # is inversion-invariant.  The measured dynamics defect is reported too but
    # does not enter the verdict (a one-sided potential can still happen to
    # produce reversible-looking pairs on the sampled window).
    reversible = bool(rev.lagrangian_symmetric and rev.constraint_invariant)

    g0 = build_initial(problem, cfg["initial"]) if cfg["initial"] is not None else samples[0]
    trajectory = sv.evolve(problem, g0, check["trajectory_steps"], options)
    # F+ at each element g is its step's left gradient projected on the
    # distribution basis at beta(g), the step frame's own product; a step that
    # stopped at its roundoff floor matches the transforms only to about that
    # floor, so each gap is held to its own step's stop level
    gaps, matched = [], True
    for g, g_next, res in zip(trajectory.elements, trajectory.elements[1:], trajectory.results):
        plus = res.left_grad @ problem.distribution.basis(problem.backend.target(g))
        minus = sv.legendre_minus(problem, g_next)
        gaps.append(float(np.max(np.abs(plus - minus.components))))
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
    text = _write_json(os.path.join(out_dir, report_name), report, report=report_name)
    if verbose:
        print(f"checked {problem.name}: reversible={reversible}", file=sys.stderr)
    return text


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
    g0 = build_initial(problem, cfg["initial"])
    trajectory = sv.evolve(problem, g0, cfg["steps"], sv.SolverOptions(**cfg["solver"]))
    report = momentum_report(problem, spec_names, trajectory, cfg["momentum"]["tolerance"])
    report["system"] = problem.name
    report["steps"] = trajectory.n_steps

    report_name = cfg["outputs"].get("report", "momentum_report.json")
    specs = {
        name: {key: value for key, value in entry.items() if key != "rows"}
        for name, entry in report["specs"].items()
    }
    text = _write_json(os.path.join(out_dir, report_name), report, specs=specs,
                       report=report_name)
    if verbose:
        print(
            f"momentum check on {problem.name}: "
            f"max identity gap {report['max_identity_gap']:.3e}",
            file=sys.stderr,
        )
    return text


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


# each runner writes its files and returns the JSON text that main prints
_RUNNERS = {"simulate": run_simulate, "check": run_check, "momentum": run_momentum}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        # one floating-point policy: a non-finite value meets the finiteness
        # checks of the step and of the constraint test, not a numpy warning
        with np.errstate(all="ignore"):
            print(_RUNNERS[args.command](cfg, args.out, verbose=args.verbose))
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
