"""Stepwise solution of the projected discrete Euler-Lagrange equations.

``step`` advances one element: the unknown is the next element, parametrized
by fiber-chart coordinates on the source-fiber over the matching point, and
``newton``, the package's one damped Newton loop (``diagnostics.chi_inverse``
uses it too), drives the stacked residual (projected DEL rows, then
constraint rows) to tolerance, or to its roundoff floor when that is larger.
``evolve`` chains steps into a trajectory.

Both the Newton matrix and the regularity test come from one object, the
mixed second derivative H of the discrete Lagrangian
(``NhProblem.mixed_hess``): the Newton matrix is [-B^T H(center); left
chart gradient of phi at center], and the two pairings of the two-point form
are -X^T H(g) W and -V^T H(g) X (``problem.regularity_matrices``, the
reference for the sigmas the step computes without forming them).

The solver refuses to step from degenerate configurations: before iterating
it runs the point-regularity test (both kernel conditions of the two-point
form) at the current element, and during iteration it monitors a 1-norm
condition estimate of each Newton matrix computed from its LU factors.

A step builds one ``problem.StepFrame`` for its current element g, so what
depends on g alone (the distribution basis at beta(g), the left gradient of
L at g and its projection) is evaluated once and shared by the regularity
test, every residual, every Newton matrix and the multipliers.  A Newton
matrix and the regularity test at the same element share one H and left phi
gradient (``NhProblem.hess_record``), so a step that accepted its first
guess hands them to the next step's test.  The matrices
are 2x2 to 5x5, where the numpy/scipy wrappers cost several times the LAPACK
routine they call, so the step calls LAPACK directly: dlange, dgetrf and
dgecon to factor, dgetrs to solve and dgelsd for the multipliers.  The
regularity test needs two singular values of each pairing, and it takes them
the same way for every system, with no null-space basis: the rows of X^T H
and the columns of H B, projected off the row space of the constraint
gradient (``problem._projected_sigmas``).  With one constraint on a
3-dimensional fiber (the particle, Suslov, the sleigh, Veselova and the
sphere) that is a closed form on floats; the rolling ball and the robot take
a LAPACK QR (dgeqrf, dorgqr) of each gradient and one values-only dgesdd of
each projected pairing.  Each kernel is preceded by a finiteness check, and
a non-finite matrix or a LAPACK failure is a SingularError.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from . import problem as pb
from .errors import (
    ChartDomainError,
    NhError,
    NoConvergenceError,
    NotComposableError,
    SingularError,
)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
REGULARITY_RTOL = 1e-10
EPS = np.finfo(float).eps


@dataclass
class SolverOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    cond_limit: float = 1e14


@dataclass
class StepResult:
    next: object
    multipliers: np.ndarray
    iterations: int
    residual_norm: float
    jacobian_condition_estimate: float
    residual_history: list = field(default_factory=list)
    backtracks: int = 0  # line-search trial points rejected over the step
    sigma_min_left: float = math.nan  # kernel singular values of the pairings at g
    sigma_min_right: float = math.nan
    floor: float = math.nan  # roundoff floor of the residual; the step stops at max(tol, floor)
    floor_limited: bool = False  # stopped with tol < residual <= floor


@dataclass
class NhCovector:
    """Constraint-distribution covector at a base point: components over the
    distribution basis there."""

    base: np.ndarray
    components: np.ndarray


@dataclass
class Trajectory:
    problem: object
    elements: list
    results: list

    def __len__(self):
        return len(self.elements)

    @property
    def n_steps(self):
        return len(self.results)


def factor_newton_matrix(p, J):
    """LU factors of a Newton matrix and its 1-norm condition estimate
    (LAPACK dgetrf, then dgecon on the same factors): returns (lu, piv, cond).

    cond is inf for an exactly singular matrix; a non-finite matrix is a
    SingularError.
    """
    anorm = lapack.dlange("1", J)
    if not math.isfinite(anorm):
        raise SingularError(f"{p.name}: Newton matrix has non-finite entries")
    lu, piv, info = lapack.dgetrf(J)
    if info < 0:
        raise SingularError(f"{p.name}: Newton matrix factorization failed (info {info})")
    if info > 0:  # an exactly zero pivot
        return lu, piv, math.inf
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not math.isfinite(rcond) or rcond <= 0.0:
        return lu, piv, math.inf
    return lu, piv, 1.0 / rcond


def point_regularity_sigmas(p, g, frame=None):
    """Kernel singular values of the two nondegeneracy pairings at g.

    Returns ((smin_left, smax_left), (smin_right, smax_right)); each pairing
    must couple all p.r distribution directions to count as nondegenerate.
    ``frame`` is the step's ``problem.StepFrame`` for g, when there is one.
    """
    return (frame or pb.StepFrame(p, g)).regularity_sigmas()


def is_nondegenerate(smin, smax):
    """Whether a pairing with kernel singular value ``smin`` and largest
    singular value ``smax`` (see :func:`point_regularity_sigmas`) counts as
    nondegenerate."""
    return smin > REGULARITY_RTOL * max(smax, 1e-300)


def _assert_point_regular(p, frame):
    """Run the point-regularity test at the frame's element; returns
    (smin_left, smin_right)."""
    left, right = point_regularity_sigmas(p, frame.g, frame)
    for side, (smin, smax) in (("right", right), ("left", left)):
        if not is_nondegenerate(smin, smax):
            raise SingularError(
                f"{p.name}: two-point form degenerate at the current element "
                f"({side} pairing sigma_min = {smin:.3e})"
            )
    return left[0], right[0]


def _norm_and_merit(r):
    """(max |r_i|, 1/2 sum r_i^2) of a residual vector, on Python floats.

    Python's ``max`` skips a NaN that is not the first entry, so the max is
    returned as NaN whenever the sum of squares is NaN: a residual with a NaN
    anywhere then fails both the finiteness check and the line-search tests.
    """
    values = r.tolist()
    squares = sum(v * v for v in values)
    if math.isnan(squares):
        return math.nan, math.nan
    return max(map(abs, values)), 0.5 * squares


def newton(p, residual, jacobian, center, g, opts):
    """Damped Newton iteration for ``residual`` = 0 on the source fiber of
    ``center``, with ``jacobian`` its matrix in the chart at an iterate and
    ``g`` the scale of the roundoff floor; returns the StepResult fields it
    owns, as a dict."""
    bk = p.backend
    r = residual(center)
    rnorm, merit = _norm_and_merit(r)
    if not math.isfinite(rnorm):
        raise SingularError(f"{p.name}: residual at the first guess has non-finite entries")
    history = [rnorm]
    iters = 0
    backtracks = 0

    # The residual cannot be evaluated more accurately than about eps |J| |g|
    # (the backward-error bound of a linear solve), so that is where the
    # iteration stops when it lies above the tolerance.
    J = jacobian(center)
    parts = g if isinstance(g, tuple) else (g,)
    gmax = max(max(map(abs, part.ravel().tolist())) for part in parts)
    floor = EPS * lapack.dlange("I", J) * max(1.0, gmax)
    stop = max(opts.tol_residual, floor)
    lu, piv, cond_est = factor_newton_matrix(p, J)
    while rnorm > stop:
        if iters >= opts.max_iters:
            raise NoConvergenceError(
                f"{p.name}: no convergence after {iters} Newton iterations "
                f"(residual {rnorm:.3e})",
                iterations=iters,
                residual_norm=rnorm,
            )
        if iters:
            lu, piv, cond_est = factor_newton_matrix(p, jacobian(center))
        if not math.isfinite(cond_est) or cond_est > opts.cond_limit:
            raise SingularError(
                f"{p.name}: Newton matrix condition estimate {cond_est:.3e} "
                f"exceeds limit {opts.cond_limit:.1e}"
            )
        du, info = lapack.dgetrs(lu, piv, -r)
        if info != 0:
            raise SingularError(f"{p.name}: Newton solve failed (info {info})")
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            try:
                cand = bk.retract(center, t * du)
                p.domain_guard(cand)
                r_try = residual(cand)
            except (SingularError, ChartDomainError, NotComposableError):
                t *= 0.5
                backtracks += 1
                continue
            rnorm_try, merit_try = _norm_and_merit(r_try)
            if merit_try <= (1.0 - 2.0 * ARMIJO_C1 * t) * merit or rnorm_try <= stop:
                # recenter the chart at the accepted iterate
                center, r, rnorm, merit = cand, r_try, rnorm_try, merit_try
                accepted = True
                break
            t *= 0.5
            backtracks += 1
        iters += 1
        if not accepted:
            raise NoConvergenceError(
                f"{p.name}: line search stalled at iteration {iters} "
                f"(residual {rnorm:.3e})",
                iterations=iters,
                residual_norm=rnorm,
            )
        history.append(rnorm)

    return dict(next=center, iterations=iters, residual_norm=rnorm,
                jacobian_condition_estimate=float(cond_est), residual_history=history,
                backtracks=backtracks, floor=floor, floor_limited=rnorm > opts.tol_residual)


def step(p, g, options: Optional[SolverOptions] = None):
    """Advance one step from g; returns a StepResult with the next element.

    The current element is assumed to lie on the constraint set (``evolve``
    checks the initial condition); regularity at g is checked here and a
    SingularError raised when it fails.
    """
    opts = options or SolverOptions()
    p.domain_guard(g)
    frame = pb.StepFrame(p, g)
    sigma_left, sigma_right = _assert_point_regular(p, frame)
    center = p.backend.mirror(g)  # g's displacement repeated
    p.domain_guard(center)
    # bound methods of the frame, so a Newton matrix centred at g reuses H(g)
    solved = newton(p, frame.residual, frame.newton_matrix, center, g, opts)
    return StepResult(multipliers=frame.multipliers(solved["next"]),
                      sigma_min_left=sigma_left, sigma_min_right=sigma_right, **solved)


def evolve(p, g0, n_steps, options: Optional[SolverOptions] = None):
    """Chain ``n_steps`` steps from g0 (checked against the constraints once).

    Any solver error is re-raised with ``step_index`` set to the failing step.
    """
    opts = options or SolverOptions()
    p.assert_on_constraint(g0, label="initial element")
    elements = [g0]
    results = []
    g = g0
    for k in range(int(n_steps)):
        try:
            res = step(p, g, opts)
        except NhError as exc:
            exc.step_index = k
            raise
        elements.append(res.next)
        results.append(res)
        g = res.next
    return Trajectory(problem=p, elements=elements, results=results)


# ---------------------------------------------------------------------------
# discrete Legendre transforms


def legendre_minus(p, h):
    """Incoming momentum at alpha(h): components right_deriv(L, h, X_a)."""
    x = p.backend.source(h)
    B = np.asarray(p.distribution.basis(x), dtype=float)
    comps = p.right_grad(h) @ B
    return NhCovector(base=np.asarray(x, dtype=float).copy(), components=comps)


def legendre_plus(p, g):
    """Outgoing momentum at beta(g): components left_deriv(L, g, X_a)."""
    x = p.backend.target(g)
    B = np.asarray(p.distribution.basis(x), dtype=float)
    comps = p.left_grad(g) @ B
    return NhCovector(base=np.asarray(x, dtype=float).copy(), components=comps)
