"""Shared test helpers: hand-eliminated oracles, the generic first-guess
oracle, the numpy complement basis, the one-loop reversibility walk, the
two-evaluation momentum drift, the cell-by-cell trajectory file, an element
gap read through the chart, a call counter and a counted joint evaluation, convergence
classifiers, the long ball run, and the SO(3) and SE(2) constructors only the
tests use (the SO(3) hat and vee, the SE(2) hat, a wrapped SE(2) triple and
the SE(2) adjoint)."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from nhmech import diagnostics as dg
from nhmech import models as md
from nhmech import problem as pb
from nhmech import solver as sv
from nhmech.errors import NhError, NotInConstraintCone
from nhmech.groupoid import COMPOSE_TOL
from nhmech.liegroup import cross3, wrap_angle

BALL_PARAMS = {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01}
BALL_INITIAL = {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0}

_ACCEPTANCE_OUTCOMES = {}


@pytest.fixture(scope="session")
def ball_run():
    """One long roll: 20000 steps from the reference start.

    Acceptance criterion 01 uses the leading 1000 steps (stepping is
    sequential, so the prefix equals a standalone 1000-step run bit for bit);
    criterion 02 and the long-horizon suite use the whole path.
    """
    p = md.make_rolling_ball(**BALL_PARAMS)
    g0 = p.initial_builder(BALL_INITIAL)
    return p, sv.evolve(p, g0, 20000)


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance.py::test_criterion_" in report.nodeid:
        _ACCEPTANCE_OUTCOMES[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion at the end of the run."""
    if not _ACCEPTANCE_OUTCOMES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE_OUTCOMES):
        name = nodeid.split("::")[-1].replace("test_criterion_", "")
        label = name.replace("_", " ")
        verdict = "PASS" if _ACCEPTANCE_OUTCOMES[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {label}: {verdict}")


def particle_oracle(q0, q1):
    """Independent elimination of the particle step (solved by hand from the
    three difference/constraint equations, no solver machinery)."""
    x0, y0, z0 = q0
    x1, y1, z1 = q1
    y2 = 2 * y1 - y0
    a = 2 * x1 - x0 + y1 * (2 * z1 - z0)
    mu = 0.5 * (y2 + y1)
    x2 = (a - y1 * z1 + y1 * mu * x1) / (1 + y1 * mu)
    z2 = z1 + mu * (x2 - x1)
    return np.array([x2, y2, z2])


def del_covector(p, g, h):
    """Full difference covector F(v) = left_grad(g) . v - right_grad(h) . v
    as components over the fiber chart directions."""
    return p.left_grad(g) - p.right_grad(h)


def mirror_center(p, g):
    """Generic first guess for the element after g, the oracle for the
    backends' closed-form ``mirror``: the coordinates of g in the chart at
    its source unit, applied at the unit over its target (a log, then an
    exp)."""
    bk = p.backend
    return bk.retract(bk.identity(bk.target(g)), bk.coords(bk.identity(bk.source(g)), g))


def element_gap(bk, a, b):
    """Gap between elements a and b of backend bk: the max gap of their
    source points when that exceeds COMPOSE_TOL, else the larger of it and
    max |coords(a, b)| (exactly |target b - target a| on the pair backend)."""
    gap = float(np.max(np.abs(np.asarray(bk.source(a)) - bk.source(b)), initial=0.0))
    if gap > COMPOSE_TOL:
        return gap
    return max(gap, float(np.max(np.abs(bk.coords(a, b)))))


def momentum_value_oracle(p, spec, g, xi=None):
    """Momentum of g as ``diagnostics.momentum_value`` computed it before the
    single-pass drift: its own matching point, basis, ``np.linalg.lstsq``
    cone check and left gradient."""
    x = p.backend.target(g)
    if xi is None:
        xi = np.asarray(spec.xi_map(x), dtype=float)
    v = np.asarray(spec.section(xi, x), dtype=float)
    B = np.asarray(p.distribution.basis(x), dtype=float)
    coef, _, _, _ = np.linalg.lstsq(B, v, rcond=None)
    gap = float(np.max(np.abs(v - B @ coef)))
    if gap > 1e-10 * (1.0 + float(np.max(np.abs(v)))):
        raise NotInConstraintCone(f"{p.name}/{spec.name}: gap {gap:.3e}")
    return float(p.left_grad(g) @ v)


def reversibility_oracle(p, samples, options=None, frames=None):
    """``diagnostics.reversibility_report`` as one loop, each sample's step
    right after its L and phi evaluations; the oracle for the two-pass walk."""
    bk = p.backend
    lag_defect = con_defect = dyn_defect = 0.0
    solved, lag_scale = 0, 1.0
    frames = [None] * len(samples) if frames is None else frames
    for g, frame in zip(samples, frames, strict=True):
        gi = bk.invert(g)
        lv = p.lagrangian.eval(g)
        lag_scale = max(lag_scale, abs(lv))
        lag_defect = dg._worst(lag_defect, abs(lv - p.lagrangian.eval(gi)))
        if p.k:
            con_defect = dg._worst(con_defect, float(np.max(np.abs(p.phi(gi)))))
        try:
            res = sv.step(p, g, options, frame)
        except NhError:
            continue
        solved += 1
        rev = pb.residual_at(p, bk.invert(res.next), gi)
        dyn_defect = dg._worst(dyn_defect, float(np.max(np.abs(rev))))
    lag_ok = lag_defect <= dg.LAGRANGIAN_SYMMETRY_RTOL * lag_scale
    con_ok = con_defect <= dg.CONSTRAINT_INVARIANCE_TOL
    dyn_ok = solved > 0 and dyn_defect <= dg.DYNAMICS_REVERSIBILITY_TOL
    declared = p.declared_reversible
    return dg.ReversibilityReport(
        lagrangian_symmetric=bool(lag_ok),
        constraint_invariant=bool(con_ok),
        dynamics_reversible=bool(dyn_ok),
        max_lagrangian_defect=float(lag_defect),
        max_constraint_defect=float(con_defect),
        max_dynamics_defect=float(dyn_defect),
        solved_steps=solved,
        declared=declared,
        consistent=None if declared is None else (lag_ok and con_ok and dyn_ok) == declared,
    )


def momentum_drift_oracle(p, spec, elements):
    """Per-step (measured, predicted) momentum changes with every element
    evaluated twice, as one momentum of each adjacent pair; the oracle for
    the single-pass ``diagnostics.momentum_drift``."""
    bk = p.backend
    out = []
    for g, gn in zip(elements[:-1], elements[1:]):
        x0 = bk.target(g)
        x1 = bk.target(gn)
        xi0 = np.asarray(spec.xi_map(x0), dtype=float)
        xi1 = np.asarray(spec.xi_map(x1), dtype=float)
        measured = momentum_value_oracle(p, spec, gn, xi1) - momentum_value_oracle(p, spec, g, xi0)
        predicted = p.left_grad(gn) @ spec.section(xi1 - xi0, x1)
        out.append((float(measured), float(predicted)))
    return out


def so3_hat(w):
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def so3_vee(A):
    """Inverse of hat on antisymmetric matrices (reads the lower triangle)."""
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def se2_element(theta, x, y):
    return np.array([wrap_angle(theta), float(x), float(y)])


def se2_hat(xi):
    """Algebra element (omega, v1, v2) as a 3x3 matrix."""
    om, v1, v2 = xi
    return np.array([[0.0, -om, v1], [om, 0.0, v2], [0.0, 0.0, 0.0]])


def se2_Ad(g, xi):
    """Adjoint action on (omega, v): (omega, R(theta) v - omega J t)."""
    th, x, y = (float(a) for a in g)
    om, v1, v2 = (float(a) for a in xi)
    c, s = math.cos(th), math.sin(th)
    return np.array([om, c * v1 - s * v2 + om * y, s * v1 + c * v2 - om * x])


def row_oracle(g):
    """The element as one flat row, part by part; the oracle for
    ``NhProblem.to_rows``."""
    parts = g if isinstance(g, tuple) else (g,)
    return np.concatenate([np.ravel(np.asarray(part, dtype=float)) for part in parts])


def _csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def trajectory_text_oracle(problem, trajectory, fmt):
    """The trajectory file built one cell at a time and written through
    ``csv.writer`` (csv) or ``json.dumps`` (json); the oracle for
    ``cli.trajectory_table`` and ``cli._table_text``."""
    header = (
        ["step"]
        + list(problem.coord_names)
        + ["iterations", "residual_norm", "cond_estimate"]
        + [f"lambda_{j + 1}" for j in range(problem.k)]
    )
    rows = []
    for idx, g in enumerate(trajectory.elements):
        cells = [idx] + [float(v) for v in row_oracle(g)]
        if idx == 0:
            cells += [None] * (3 + problem.k)
        else:
            res = trajectory.results[idx - 1]
            cells += [
                int(res.iterations),
                float(res.residual_norm),
                float(res.jacobian_condition_estimate),
            ]
            cells += [float(lam) for lam in res.multipliers]
        rows.append(cells)
    if fmt == "json":
        return json.dumps({"columns": header, "rows": rows}, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buf.getvalue()


_EYE3 = np.eye(3)


def complement_basis_oracle(v):
    """``models._complement_basis`` in numpy: each norm sqrt(x.dot(x)), the
    argmin of |vhat| and ``liegroup.cross3`` of vhat and b1 (a zero or
    non-finite v gives NaN, with numpy's warnings)."""
    v = np.asarray(v, dtype=float)
    vhat = v / math.sqrt(v.dot(v))
    j = abs(vhat).argmin()
    b1 = _EYE3[j] - vhat[j] * vhat
    b1 = b1 / math.sqrt(b1.dot(b1))
    out = np.empty((3, 2))
    out[:, 0] = b1
    out[:, 1] = cross3(vhat, b1)
    return out


def counted(fn, calls):
    """fn, counting its calls in calls[0]."""

    def counting(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return counting


def with_evaluation(p, evaluate):
    """A copy of p whose steps take ``evaluate`` as the joint candidate
    evaluation (``NhProblem.evaluate``); its four parts stay p's, so a test
    at an element a frame has not evaluated still takes them alone."""
    q = dataclasses.replace(p)
    q.evaluate = evaluate
    return q


def counted_evaluation(p, calls, hess=None):
    """p with its joint evaluation counted in calls[0] (see
    :func:`with_evaluation`); ``hess(H, count)``, when given, replaces the H
    of the count-th evaluation."""
    evaluate = p.evaluate

    def counting(h):
        calls[0] += 1
        right, phi, H, left_jac = evaluate(h)
        return right, phi, H if hess is None else hess(H, calls[0]), left_jac

    return with_evaluation(p, counting)


def newton_tail_is_quadratic(history, floor=1e-14):
    """Classify the tail of a Newton residual history as quadratic.

    For quadratic contraction the per-transition constants C_i = r_{i+1}/r_i^2
    stay within a factor that is tiny on the scale of the overall drop in r,
    and the log-log slope between consecutive residuals is near 2.  Linear
    contraction fails both measures by a wide margin.  Entries at the roundoff
    floor are discarded; histories too short to classify pass (a solve that
    lands in one shot is not evidence of slow convergence).
    """
    rs = [float(r) for r in history if r > floor]
    if len(rs) < 3:
        return True
    rs = rs[-3:]
    c1 = rs[1] / rs[0] ** 2
    c2 = rs[2] / rs[1] ** 2
    spread = abs(np.log(c2 / c1)) / abs(np.log(rs[2] / rs[0]))
    slope = np.log(rs[2] / rs[1]) / np.log(rs[1] / rs[0])
    return spread < 0.2 and slope >= 1.5
