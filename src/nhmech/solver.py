"""Stepwise solution of the projected discrete Euler-Lagrange equations.

``step`` advances one element: the unknown is the next element, in
fiber-chart coordinates on the source fiber over the matching point, and
``newton``, the package's one damped Newton loop (``diagnostics.chi_inverse``
uses it too), drives the stacked residual (projected DEL rows, then
constraint rows) to tolerance, or to its roundoff floor when that is larger.
``evolve`` chains steps into a trajectory.  A step tests the right pairing
at g before Newton and the left pairing at its root after it, and holds the
1-norm condition estimate of each Newton matrix, from its LU factors, to
``cond_limit``.  The Newton matrix and both tests come from H
(``NhProblem.mixed_hess``) on one ``problem.StepFrame``, and the step calls
LAPACK directly, each kernel after a finiteness check of its own; a
non-finite matrix or a LAPACK failure is a SingularError.  The README
("Library use") gives the design and the reasons for it.
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
    sigma_min_left: float = math.nan  # kernel singular value of the left pairing at next
    sigma_min_right: float = math.nan  # kernel singular value of the right pairing at g
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
    ``frame`` is a ``problem.StepFrame`` for g, when there is one; the basis
    at alpha(g) is evaluated here.
    """
    frame = pb.step_frame(p, g, frame)
    Xa = np.asarray(p.distribution.basis(np.asarray(p.backend.source(g), dtype=float)), dtype=float)
    return frame.left_sigmas(g, Xa), frame.right_sigmas()


def is_nondegenerate(smin, smax):
    """Whether a pairing with kernel singular value ``smin`` and largest
    singular value ``smax`` (see :func:`point_regularity_sigmas`) counts as
    nondegenerate."""
    return smin > REGULARITY_RTOL * max(smax, 1e-300)


def _assert_regular(p, side, sigmas, where):
    """The smin of ``sigmas`` = (smin, smax), the kernel singular values of
    the ``side`` pairing at ``where``; a degenerate pairing is a SingularError."""
    smin, smax = sigmas
    if not is_nondegenerate(smin, smax):
        raise SingularError(
            f"{p.name}: two-point form degenerate at the {where} "
            f"({side} pairing sigma_min = {smin:.3e})"
        )
    return smin


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


def step(p, g, options: Optional[SolverOptions] = None, frame=None):
    """Advance one step from g; returns a StepResult with the next element.

    The current element is assumed to lie on the constraint set (``evolve``
    checks the initial condition).  The right pairing is tested at g before
    Newton and the left pairing at the accepted root after it; either failing
    is a SingularError.

    ``frame`` is a ``problem.StepFrame`` built for g on p, or None for a
    fresh one (another element's frame is a ValueError).  A frame that a
    ``diagnostics.regularity_report`` has used hands the step its right
    test, its first guess and the H there; the step evaluates them in the
    same order either way, so the result is the same.
    """
    opts = options or SolverOptions()
    frame = pb.step_frame(p, g, frame)
    sigma_right = _assert_regular(p, "right", frame.right_sigmas(), "current element")
    center = frame.guess()  # g's displacement repeated
    # bound methods of the frame, so a Newton matrix centred at g reuses H(g)
    solved = newton(p, frame.residual, frame.newton_matrix, center, g, opts)
    h = solved["next"]  # alpha(h) = beta(g), so the left test at h takes the frame's basis
    sigma_left = _assert_regular(p, "left", frame.left_sigmas(h), "next element")
    return StepResult(multipliers=frame.multipliers(h),
                      sigma_min_left=sigma_left, sigma_min_right=sigma_right, **solved)


def evolve(p, g0, n_steps, options: Optional[SolverOptions] = None):
    """Chain ``n_steps`` steps from g0 (checked against the constraints once).

    Each step's frame starts with the record of the frame before it (see
    ``problem.StepFrame``).  Any solver error, in a step or in building its
    frame, is re-raised with ``step_index`` set to the failing step.
    """
    opts = options or SolverOptions()
    p.assert_on_constraint(g0, label="initial element")
    elements = [g0]
    results = []
    g = g0
    record = (None, None)
    for k in range(int(n_steps)):
        try:
            frame = pb.StepFrame(p, g, record)
            res = step(p, g, opts, frame)
            record = frame.record
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
    """Outgoing momentum at beta(g): components left_deriv(L, g, X_a), the
    projected left gradient of a step frame from g."""
    frame = pb.StepFrame(p, g)
    return NhCovector(base=frame.beta.copy(), components=frame.left_rows)
