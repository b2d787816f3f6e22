"""Diagnostics: regularity reports, reversibility checks, momentum maps, and
the reduced-equation consistency test for Chaplygin-type systems.

The momentum pass (:func:`_momentum_pass`) serves :func:`momentum_drift`,
:func:`max_momentum_drift` and :func:`momentum_value`, and checks its
elements in blocks; the README ("Library use") gives the design.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import groupoid as gpd
from . import problem as pb
from . import solver as sv
from .errors import (ChartInversionFailed, NhError, NoConvergenceError, NotInConstraintCone,
                     SingularError)

LAGRANGIAN_SYMMETRY_RTOL = 1e-9
CONSTRAINT_INVARIANCE_TOL = 1e-9
DYNAMICS_REVERSIBILITY_TOL = 1e-6
CHART_INVERSION_TOL = 1e-13
CHART_INVERSION_MAX_ITERS = 30
# elements per stack of the momentum pass (its transient memory)
MOMENTUM_BLOCK = 256


# ---------------------------------------------------------------------------
# regularity


@dataclass
class RegularityReport:
    right_nondegenerate: bool
    sigma_min_right: float
    left_nondegenerate: bool
    sigma_min_left: float
    jacobian_condition: float


def regularity_report(p, g, frame=None):
    """Point-regularity of the two-point form at g, plus the condition
    estimate of the Newton matrix at the canonical mirror guess.

    ``frame`` is a ``problem.StepFrame`` built for g on p, or None for a
    fresh one; a step from g that takes the same frame reuses its right test,
    its guess and the H and phi gradient there."""
    frame = pb.step_frame(p, g, frame)
    (lmin, lmax), (rmin, rmax) = sv.point_regularity_sigmas(p, g, frame)
    try:
        _, _, cond = sv.factor_newton_matrix(p, frame.newton_matrix(frame.guess()))
    except NhError:
        cond = np.inf
    return RegularityReport(
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


def _worst(defect, value):
    """max(defect, value), NaN once either is NaN: a NaN defect fails its
    check (Python's ``max`` would keep its first argument)."""
    return math.nan if math.isnan(defect) or math.isnan(value) else max(defect, value)


def reversibility_report(p, samples, options=None, frames=None):
    """Three-part reversibility check over sample elements on the constraint
    set: L against inversion, the constraint set against inversion, and (for
    solved pairs) the residual of the reversed pair.  The dynamics count as
    reversible only when at least one sample's step solved.

    ``frames``, when given, holds one ``problem.StepFrame`` per sample, in
    order, for that sample's step (see ``solver.step``); a count other than
    the samples' is a ValueError.
    """
    bk = p.backend
    lag_defect = 0.0
    con_defect = 0.0
    dyn_defect = 0.0
    solved = 0
    lag_scale = 1.0
    frames = [None] * len(samples) if frames is None else frames
    for g, frame in zip(samples, frames, strict=True):
        gi = bk.invert(g)
        lv = p.lagrangian.eval(g)
        lag_scale = max(lag_scale, abs(lv))
        lag_defect = _worst(lag_defect, abs(lv - p.lagrangian.eval(gi)))
        if p.k:
            con_defect = _worst(con_defect, float(np.max(np.abs(p.phi(gi)))))
        try:
            res = sv.step(p, g, options, frame)
        except NhError:
            continue
        solved += 1
        rev = pb.residual_at(p, bk.invert(res.next), gi)
        dyn_defect = _worst(dyn_defect, float(np.max(np.abs(rev))))
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
    xi (an array) at base point x; it must be linear in xi.
    ``xi_map(x)`` picks the parameter used along trajectories.
    """

    name: str
    section: Callable
    xi_map: Callable


def _cone_gaps(p, specs, V, B):
    """Max-abs gap of each direction V[i, j] from the column space of its
    basis B[i], for stacks V (m, s, n) and B (m, n, r) of finite entries.

    One stacked SVD gives the bases' left singular vectors; a singular value
    at or below eps * max(n, r) times the largest counts as zero, the cutoff
    of :func:`problem.least_squares`, so a rank-deficient basis spans what
    it spans there.  The gap is that of the direction minus its projection.
    """
    try:
        U, sig, _ = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"{p.name}/{specs[0].name}: distribution basis SVD failed") from exc
    U = U * (sig > pb.EPS * max(B.shape[1:]) * sig[:, :1])[:, None, :]
    return np.abs(V - (V @ U) @ U.transpose(0, 2, 1)).max(axis=2)


def _block_momenta(p, specs, V, B, lefts):
    """Momenta (one list of floats per element, one float per spec) of the
    first ``len(lefts)`` elements of a block, from their stacked symmetry
    directions V, bases B and left gradients ``lefts``.

    The finiteness checks and the cone gaps (:func:`_cone_gaps`) run once
    for the block; the value of each spec is ``float(left_grad @ v)``.  The
    first failing element raises, with the checks of :func:`momentum_value`
    in its order: every direction finite, the basis finite, then per spec
    the gap within 1e-10 (1 + max|v|) and the value finite.
    """
    m = len(lefts)
    V, B = V[:m], B[:m]
    finite = np.isfinite(V).all(axis=(1, 2)) & np.isfinite(B).all(axis=(1, 2))
    f = m if finite.all() else int(finite.argmin())
    gaps = _cone_gaps(p, specs, V[:f], B[:f]).tolist()
    bounds = (1e-10 * (1.0 + np.abs(V[:f]).max(axis=2))).tolist()
    out = []
    for i, left in enumerate(lefts):
        if i == f:  # one of these raises
            for spec, v in zip(specs, V[i]):
                pb.require_finite(v, f"{p.name}/{spec.name}: symmetry direction")
            pb.require_finite(B[i], f"{p.name}/{specs[0].name}: distribution basis")
        values = []
        for spec, v, gap, bound in zip(specs, V[i], gaps[i], bounds[i]):
            if gap > bound:
                raise NotInConstraintCone(
                    f"{p.name}/{spec.name}: direction leaves the constraint distribution "
                    f"at the evaluation point (gap {gap:.3e})"
                )
            values.append(float(left @ v))
            if not math.isfinite(values[-1]):
                raise SingularError(f"{p.name}/{spec.name}: momentum value is {values[-1]}")
        out.append(values)
    return out


def _momentum_pass(p, specs, trajectory, predict=False):
    """The momenta of every element of a trajectory (or a sequence of
    elements), one list of floats per element with one float per spec, and,
    with ``predict``, the predicted change across each adjacent pair (one
    list per pair; see :func:`momentum_drift`), else None.  The checks run
    per block of MOMENTUM_BLOCK elements (:func:`_block_momenta`), so the
    first failing element raises, and a model callable that raises does so
    after the checks of the elements before it in its block.
    """
    elements = trajectory.elements if hasattr(trajectory, "elements") else list(trajectory)
    bk, size = p.backend, max(1, min(len(elements), MOMENTUM_BLOCK))
    V = np.empty((size, len(specs), p.n))
    B = np.empty((size, p.n, p.r))
    values, predicted, xis_before = [], [] if predict else None, None
    for start in range(0, len(elements), size):
        lefts, changes = [], []
        try:
            for i, g in enumerate(elements[start:start + size]):
                x = bk.target(g)
                xi_now = [np.asarray(spec.xi_map(x), dtype=float) for spec in specs]
                for j, (spec, xi) in enumerate(zip(specs, xi_now)):
                    V[i, j] = spec.section(xi, x)
                B[i] = p.distribution.basis(x)
                left, change = p.left_grad(g), None
                if predict and xis_before is not None:
                    change = [np.asarray(spec.section(xi - xi_before, x), dtype=float)
                              for spec, xi, xi_before in zip(specs, xi_now, xis_before)]
                lefts.append(left)
                changes.append(change)
                xis_before = xi_now
        except Exception:
            _block_momenta(p, specs, V, B, lefts)
            raise
        values += _block_momenta(p, specs, V, B, lefts)
        if predict:
            predicted += [[float(left @ d) for d in change]
                          for left, change in zip(lefts, changes) if change is not None]
    return values, predicted


def momentum_value(p, spec, g, xi=None):
    """Nonholonomic momentum of g for the symmetry parameter xi (default: the
    spec's parameter at the matching point beta(g)).

    The symmetry direction must take values in the constraint distribution at
    beta(g); otherwise NotInConstraintCone is raised.  A non-finite direction,
    basis or value raises SingularError.
    """
    if xi is not None:
        spec = replace(spec, xi_map=lambda x: xi)
    return _momentum_pass(p, [spec], [g])[0][0][0]


def invariance_defect(p, spec, g, xi):
    """Defect of the symmetry identity: left derivative along the section at
    beta(g) minus right derivative along the section at alpha(g)."""
    bk = p.backend
    xi = np.asarray(xi, dtype=float)
    return float(p.left_grad(g) @ spec.section(xi, bk.target(g))
                 - p.right_grad(g) @ spec.section(xi, bk.source(g)))


def momentum_drift(p, specs, trajectory):
    """Per-step (measured, predicted) momentum changes along a trajectory, one
    list of pairs per spec in ``specs``.

    measured  = J(g_{k+1}) - J(g_k) with the spec's parameter map;
    predicted = left derivative at g_{k+1} along the section of the parameter
    difference (the discrete evolution identity; exact when the section is
    linear in the parameter and the symmetry identity holds).  One pass
    (:func:`_momentum_pass`) serves every spec.
    """
    values, predicted = _momentum_pass(p, specs, trajectory, predict=True)
    return [
        [(after[j] - before[j], change[j])
         for before, after, change in zip(values, values[1:], predicted)]
        for j in range(len(specs))
    ]


def max_momentum_drift(p, specs, trajectory):
    """The largest |measured| change of :func:`momentum_drift` over every
    spec and step (0.0 for fewer than two elements), from the same pass and
    checks without the predicted changes."""
    values = _momentum_pass(p, specs, trajectory)[0]
    return max(
        (abs(a - b) for before, after in zip(values, values[1:]) for a, b in zip(after, before)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# Chaplygin reduction


def chi_inverse(p, x, y, seed):
    """Invert the two-point chart g -> (alpha(g), beta(g)) on the constraint
    set by the solver's Newton iteration on the seed's source fiber, which
    must lie over x.  A failure to invert is a ChartInversionFailed."""
    bk = p.backend
    if bk.base_dim + p.k != p.n:
        raise ChartInversionFailed(
            f"{p.name}: two-point chart is not square "
            f"({bk.base_dim + p.k} equations, {p.n} unknowns)"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    off = float(np.abs(x - np.asarray(bk.source(seed), dtype=float)).max(initial=0.0))
    if off > gpd.COMPOSE_TOL:
        raise ChartInversionFailed(f"{p.name}: source is {off:.3e} off the seed's source fiber")

    def eqs(el):
        return np.concatenate([np.asarray(bk.target(el), dtype=float) - y, p.phi(el)])

    opts = sv.SolverOptions(tol_residual=CHART_INVERSION_TOL, max_iters=CHART_INVERSION_MAX_ITERS)
    try:
        solved = sv.newton(p, eqs, lambda el: gpd.left_jacobian(bk, eqs, el), seed, seed, opts)
    except (SingularError, NoConvergenceError) as exc:
        raise ChartInversionFailed(f"{p.name}: chart inversion failed: {exc}") from exc
    return solved["next"]


def _constraint_section_lift(p, x):
    """Matrix (n, m) whose columns lift the base coordinate directions into
    the constraint distribution through the anchor."""
    B = np.asarray(p.distribution.basis(x), dtype=float)
    A = gpd.anchor_matrix(p.backend, x)
    P = A @ B
    try:
        C = np.linalg.solve(P, np.eye(P.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ChartInversionFailed(
            f"{p.name}: anchor restricted to the distribution is singular: {exc}"
        )
    return B @ C


def chaplygin_residual(p, g, h):
    """Reduced-equation residual of a composable pair (g, h) of a Chaplygin
    system, one value per base direction: the discrete Euler-Lagrange rows
    of the pair along the lift X of the base directions at beta(g),
    (left_grad(g) - right_grad(h)) . X.

    The reduced equations split these rows as the rows of the reduced
    Lagrangian on the base pair groupoid plus the reduction forces, and each
    force is defined as the lifted derivative minus the reduced one
    (Cortes & Martinez, Nonlinearity 14, 2001), so the split is an identity:
    the reduced terms cancel, and the sum is the lifted rows.  They vanish
    exactly when the projected rows of the step do, since X spans the
    constraint distribution there.  A Chaplygin distribution complements the
    vertical directions, so a rank other than the base dimension is a
    ValueError.
    """
    if p.r != p.backend.base_dim:
        raise ValueError(f"{p.name}: distribution rank {p.r} != base dimension, not Chaplygin")
    X = _constraint_section_lift(p, np.asarray(p.backend.target(g), dtype=float))
    return (p.left_grad(g) - p.right_grad(h)) @ X
