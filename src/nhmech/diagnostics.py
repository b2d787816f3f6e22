"""Diagnostics: regularity reports, reversibility checks, momentum maps, and
the reduced-equation consistency test for Chaplygin-type systems.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import groupoid as gpd
from . import problem as pb
from . import solver as sv
from .errors import ChartInversionFailed, NhError, NotInConstraintCone, SingularError

LAGRANGIAN_SYMMETRY_RTOL = 1e-9
CONSTRAINT_INVARIANCE_TOL = 1e-9
DYNAMICS_REVERSIBILITY_TOL = 1e-6
CHART_INVERSION_TOL = 1e-13
CHART_INVERSION_MAX_ITERS = 30
REDUCTION_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# regularity


@dataclass
class RegularityReport:
    point: object
    right_nondegenerate: bool
    sigma_min_right: float
    left_nondegenerate: bool
    sigma_min_left: float
    jacobian_condition: float


def regularity_report(p, g):
    """Point-regularity of the two-point form at g, plus the condition
    estimate of the Newton matrix at the canonical mirror guess."""
    frame = pb.StepFrame(p, g)
    (lmin, lmax), (rmin, rmax) = sv.point_regularity_sigmas(p, g, frame)
    try:
        J = frame.newton_matrix(p.backend.mirror(g))
        _, _, cond = sv.factor_newton_matrix(p, J)
    except NhError:
        cond = np.inf
    return RegularityReport(
        point=g,
        right_nondegenerate=sv.is_nondegenerate(rmin, rmax),
        sigma_min_right=float(rmin),
        left_nondegenerate=sv.is_nondegenerate(lmin, lmax),
        sigma_min_left=float(lmin),
        jacobian_condition=float(cond),
    )


# ---------------------------------------------------------------------------
# reversibility


@dataclass
class ReversibilityReport:
    lagrangian_symmetric: bool
    constraint_invariant: bool
    dynamics_reversible: bool
    max_lagrangian_defect: float
    max_constraint_defect: float
    max_dynamics_defect: float
    solved_steps: int  # samples whose step solved; the dynamics check needs one
    declared: Optional[bool]
    consistent: Optional[bool]


def reversibility_report(p, samples, options=None):
    """Three-part reversibility check over sample elements on the constraint
    set: L against inversion, the constraint set against inversion, and (for
    solved pairs) the residual of the reversed pair.  The dynamics count as
    reversible only when at least one sample's step solved.
    """
    bk = p.backend
    lag_defect = 0.0
    con_defect = 0.0
    dyn_defect = 0.0
    solved = 0
    lag_scale = 1.0
    for g in samples:
        gi = bk.invert(g)
        lv = p.lagrangian.eval(g)
        lag_scale = max(lag_scale, abs(lv))
        lag_defect = max(lag_defect, abs(lv - p.lagrangian.eval(gi)))
        if p.k:
            con_defect = max(con_defect, float(np.max(np.abs(p.phi(gi)))))
    for g in samples:
        try:
            res = sv.step(p, g, options)
        except NhError:
            continue
        solved += 1
        rev = pb.residual_at(p, bk.invert(res.next), bk.invert(g))
        dyn_defect = max(dyn_defect, float(np.max(np.abs(rev))))
    lag_ok = lag_defect <= LAGRANGIAN_SYMMETRY_RTOL * lag_scale
    con_ok = con_defect <= CONSTRAINT_INVARIANCE_TOL
    dyn_ok = solved > 0 and dyn_defect <= DYNAMICS_REVERSIBILITY_TOL
    verdict = bool(lag_ok and con_ok and dyn_ok)
    declared = p.declared_reversible
    return ReversibilityReport(
        lagrangian_symmetric=bool(lag_ok),
        constraint_invariant=bool(con_ok),
        dynamics_reversible=bool(dyn_ok),
        max_lagrangian_defect=float(lag_defect),
        max_constraint_defect=float(con_defect),
        max_dynamics_defect=float(dyn_defect),
        solved_steps=solved,
        declared=declared,
        consistent=None if declared is None else (verdict == declared),
    )


# ---------------------------------------------------------------------------
# momentum maps


@dataclass(frozen=True)
class MomentumSpec:
    """A parametrized family of symmetry directions.

    ``section(xi, x)`` returns the fiber direction of the symmetry parameter
    xi (an array of length ``dim``) at base point x; it must be linear in xi.
    ``xi_map(x)`` picks the parameter used along trajectories.
    """

    name: str
    dim: int
    section: Callable
    xi_map: Callable


def _momentum(p, specs, g, xis=None):
    """(beta(g), parameters, left gradient of L at g, momenta) of g, one
    parameter and one momentum per spec, with the checks of
    :func:`momentum_value` for each spec.  The matching point, the basis and
    the left gradient are evaluated once, and one least-squares call fits
    every symmetry direction."""
    x = p.backend.target(g)
    if xis is None:
        xis = [np.asarray(spec.xi_map(x), dtype=float) for spec in specs]
    V = np.array([spec.section(xi, x) for spec, xi in zip(specs, xis)], dtype=float)
    for spec, v in zip(specs, V):
        pb.require_finite(v, f"{p.name}/{spec.name}: symmetry direction")
    B = np.asarray(p.distribution.basis(x), dtype=float)
    coef, _ = pb.least_squares(B, V.T, f"{p.name}/{specs[0].name}: distribution basis")
    gaps = np.abs(V.T - B @ coef).max(axis=0)
    bounds = 1e-10 * (1.0 + np.abs(V).max(axis=1))
    left_grad = p.left_grad(g)
    values = []
    for spec, v, gap, bound in zip(specs, V, gaps, bounds):
        if gap > bound:
            raise NotInConstraintCone(
                f"{p.name}/{spec.name}: direction leaves the constraint distribution "
                f"at the evaluation point (gap {gap:.3e})"
            )
        values.append(float(left_grad @ v))
        if not math.isfinite(values[-1]):
            raise SingularError(f"{p.name}/{spec.name}: momentum value is {values[-1]}")
    return x, xis, left_grad, values


def momentum_value(p, spec, g, xi=None):
    """Nonholonomic momentum of g for the symmetry parameter xi (default: the
    spec's parameter at the matching point beta(g)).

    The symmetry direction must take values in the constraint distribution at
    beta(g); otherwise NotInConstraintCone is raised.  A non-finite direction,
    basis or value raises SingularError.
    """
    return _momentum(p, [spec], g, None if xi is None else [xi])[3][0]


def invariance_defect(p, spec, g, xi):
    """Defect of the symmetry identity: left derivative along the section at
    beta(g) minus right derivative along the section at alpha(g)."""
    bk = p.backend
    xi = np.asarray(xi, dtype=float)
    lv = p.d_left(g, spec.section(xi, bk.target(g)))
    rv = p.d_right(g, spec.section(xi, bk.source(g)))
    return float(lv - rv)


def momentum_drift(p, specs, trajectory):
    """Per-step (measured, predicted) momentum changes along a trajectory, one
    list of pairs per spec in ``specs``.

    measured  = J(g_{k+1}) - J(g_k) with the spec's parameter map;
    predicted = left derivative at g_{k+1} along the section of the parameter
    difference (the discrete evolution identity; exact when the section is
    linear in the parameter and the symmetry identity holds).

    One pass over the trajectory serves every spec: each element is
    evaluated once, and the predicted change reuses its left gradient.
    """
    els = trajectory.elements if hasattr(trajectory, "elements") else list(trajectory)
    out, before = [[] for _ in specs], None
    for g in els:
        x, xis, left_grad, values = _momentum(p, specs, g)
        if before is not None:
            for pairs, spec, xi, value, xi0, value0 in zip(out, specs, xis, values, *before):
                predicted = left_grad @ np.asarray(spec.section(xi - xi0, x), dtype=float)
                pairs.append((value - value0, float(predicted)))
        before = xis, values
    return out


# ---------------------------------------------------------------------------
# Chaplygin reduction


def chi_inverse(p, x, y, seed):
    """Invert the two-point chart g -> (alpha(g), beta(g)) on the constraint
    set, by Newton iteration in the fiber chart seeded at a nearby element."""
    bk = p.backend
    n = p.n
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def eqs(el):
        return np.concatenate([np.asarray(bk.target(el), dtype=float) - y, p.phi(el)])

    center = seed
    r = eqs(center)
    for _ in range(CHART_INVERSION_MAX_ITERS):
        if float(np.max(np.abs(r))) <= CHART_INVERSION_TOL:
            return center
        J = gpd.left_jacobian(bk, eqs, center)
        if J.shape[0] != n:
            raise ChartInversionFailed(
                f"{p.name}: two-point chart is not square here "
                f"({J.shape[0]} equations, {n} unknowns)"
            )
        try:
            du = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError as exc:
            raise ChartInversionFailed(f"{p.name}: chart inversion matrix singular: {exc}")
        center = bk.retract(center, du)
        r = eqs(center)
    raise ChartInversionFailed(
        f"{p.name}: chart inversion did not converge (residual {np.max(np.abs(r)):.3e})"
    )


def _constraint_section_lift(p, x):
    """Matrix (n, m) whose columns lift the base coordinate directions into
    the constraint distribution through the anchor."""
    B = np.asarray(p.distribution.basis(x), dtype=float)
    A = gpd.anchor_matrix(p.backend, x)
    P = A @ B
    if P.shape[0] != P.shape[1]:
        raise ChartInversionFailed(
            f"{p.name}: anchor restricted to the distribution is not square "
            f"(rank {B.shape[1]} vs base dim {P.shape[0]})"
        )
    try:
        C = np.linalg.solve(P, np.eye(P.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ChartInversionFailed(
            f"{p.name}: anchor restricted to the distribution is singular: {exc}"
        )
    return B @ C


def chaplygin_residual(p, g, h):
    """Reduced-equation residual of a composable pair (g, h) of a Chaplygin
    system: discrete Euler-Lagrange rows of the reduced Lagrangian on the
    base pair groupoid plus the reduction forces, one value per base
    direction.  Vanishes (to chart-inversion accuracy) exactly when the
    groupoid residual vanishes.
    """
    if not p.is_chaplygin:
        raise ValueError(f"{p.name} is not flagged as a Chaplygin system")
    bk = p.backend
    L = p.lagrangian.eval
    x = np.asarray(bk.source(g), dtype=float)
    y = np.asarray(bk.target(g), dtype=float)
    z = np.asarray(bk.target(h), dtype=float)
    m = x.size
    X = _constraint_section_lift(p, y)  # lift of the base directions at the match point

    tL = REDUCTION_FD_STEP
    tF = 2.0 * REDUCTION_FD_STEP  # independent step so the force terms are not the same samples

    red = np.empty(m)
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0

        def lag_left(t):
            return L(chi_inverse(p, x, y + t * e, seed=g))

        def lag_right(t):
            return L(chi_inverse(p, y - t * e, z, seed=h))

        lvec_red = (lag_left(tL) - lag_left(-tL)) / (2.0 * tL)
        rvec_red = (lag_right(tL) - lag_right(-tL)) / (2.0 * tL)
        # vertical correction curves, differenced at the wider step
        xbar = (lag_left(tF) - lag_left(-tF)) / (2.0 * tF)
        xprime = (lag_right(tF) - lag_right(-tF)) / (2.0 * tF)
        force_plus = xbar - p.d_left(g, X[:, i])
        force_minus = xprime - p.d_right(h, X[:, i])
        red[i] = lvec_red - rvec_red - force_plus + force_minus
    return red
