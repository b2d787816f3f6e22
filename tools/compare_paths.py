"""Record the paths of the built-in systems and compare two recordings.

Usage: python tools/compare_paths.py record OUT.npz [--steps N]
       python tools/compare_paths.py compare A.npz B.npz

``record`` runs one ``solver.evolve`` of N steps (default 2000) of each
built-in system from its acceptance start (``count_calls.STARTS``) and
writes three arrays per system to OUT.npz: ``<name>/states``, the
``NhProblem.to_rows`` of the elements; ``<name>/multipliers``, one row per
step; and ``<name>/cond``, each step's Newton-matrix condition estimate.

``compare`` prints, per system, the largest difference of any coordinate of
the states and of the multipliers, and the largest relative difference of
the condition estimates, between two recordings (equal values, NaN and inf
included, differ by 0).  It exits 1 when a system is missing from one file,
an array's shape differs, or a state or multiplier differs by more than TOL,
1e-12, the per-coordinate bound a path-preserving change is held to; else 0.  Run ``record`` in two checkouts (``PYTHONPATH=src``) and
``compare`` on the two files.  Standard library, numpy and nhmech.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from count_calls import STARTS  # noqa: E402

FIELDS = ("states", "multipliers", "cond")
TOL = 1e-12


def record(steps):
    """{"<name>/<field>": array} of an evolve of ``steps`` steps of each system."""
    from nhmech import models, solver

    arrays = {}
    for name, start in STARTS.items():
        p = models.FACTORIES[name]()
        traj = solver.evolve(p, p.initial_builder(start), steps)
        arrays[f"{name}/states"] = p.to_rows(traj.elements)
        arrays[f"{name}/multipliers"] = np.array(
            [r.multipliers for r in traj.results]).reshape(steps, -1)
        arrays[f"{name}/cond"] = np.array([r.jacobian_condition_estimate for r in traj.results])
    return arrays


def difference(a, b, relative=False):
    """The largest |a - b| (over max(1, |a|) when ``relative``) of two arrays of
    one shape, equal entries (NaN with NaN, inf with inf) counting as 0."""
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(a - b)
        if relative:
            gap = gap / np.maximum(1.0, np.abs(a))
    return float(np.where(same, 0.0, gap).max(initial=0.0))


def compare(first, second):
    """Print the differences of two recordings, one row per system; returns
    the exit status (see the module docstring)."""
    names = sorted({key.split("/")[0] for key in (*first, *second)})
    width = max(map(len, names), default=6)
    print(f"{'system':<{width}}  {'steps':>6} {'states':>10} {'multipliers':>11} {'cond(rel)':>10}")
    status = 0
    for name in names:
        keys = [f"{name}/{field}" for field in FIELDS]
        if not all(key in first and key in second for key in keys):
            print(f"{name:<{width}}  missing from one recording")
            status = 1
            continue
        if any(first[key].shape != second[key].shape for key in keys):
            print(f"{name:<{width}}  shapes differ")
            status = 1
            continue
        states, mult, cond = (difference(first[key], second[key], relative=key.endswith("cond"))
                              for key in keys)
        steps = first[keys[2]].shape[0]
        print(f"{name:<{width}}  {steps:>6} {states:>10.3e} {mult:>11.3e} {cond:>10.3e}")
        if not (states <= TOL and mult <= TOL):
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(prog="compare_paths", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="write each system's path to an .npz file")
    rec.add_argument("out")
    rec.add_argument("--steps", type=int, default=2000)
    cmp_ = sub.add_parser("compare", help="print the differences of two recordings")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "record":
        if args.steps < 1:
            parser.error("--steps must be >= 1")
        with open(args.out, "wb") as fh:
            np.savez(fh, **record(args.steps))
        return 0
    with np.load(args.first) as first, np.load(args.second) as second:
        return compare(dict(first), dict(second))


if __name__ == "__main__":
    sys.exit(main())
