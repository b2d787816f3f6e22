"""Stepwise solution of the projected discrete Euler-Lagrange equations.

``step`` advances one element: the unknown is the next element, parametrized
by fiber-chart coordinates on the source-fiber over the matching point, and a
damped Newton iteration drives the stacked residual (projected DEL rows, then
constraint rows) to tolerance.  ``evolve`` chains steps into a trajectory.

Both the Newton matrix and the regularity test come from one object, the
mixed second derivative H of the discrete Lagrangian
(``NhProblem.mixed_hess``): the Newton matrix is [-B^T H(center); left
chart gradient of phi at center], and the two pairings of the two-point form
are -X^T H(g) W and -V^T H(g) X (``problem.regularity_matrices``).

The solver refuses to step from degenerate configurations: before iterating
it runs the point-regularity test (both kernel conditions of the two-point
form) at the current element, and during iteration it monitors a 1-norm
condition estimate of each Newton matrix computed from its LU factors.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
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
REGULARITY_RTOL = 1e-10


@dataclass
class SolverOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    max_backtracks: int = 30
    cond_limit: float = 1e14


@dataclass
class StepResult:
    next: object
    multipliers: np.ndarray
    iterations: int
    residual_norm: float
    jacobian_condition_estimate: float
    residual_history: list = field(default_factory=list)


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
    (LAPACK gecon on the same factors): returns (lu, piv, cond)."""
    anorm = float(np.max(np.sum(np.abs(J), axis=0))) if J.size else 0.0
    try:
        lu, piv = scipy.linalg.lu_factor(J)
    except np.linalg.LinAlgError as exc:
        raise SingularError(f"{p.name}: Newton matrix factorization failed: {exc}")
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond <= 0.0:
        return lu, piv, np.inf
    return lu, piv, 1.0 / rcond


def point_regularity_sigmas(p, g):
    """Kernel singular values of the two nondegeneracy pairings at g.

    Returns ((smin_left, smax_left), (smin_right, smax_right)); each pairing
    must couple all p.r distribution directions to count as nondegenerate.
    """
    G_left, G_right = pb.regularity_matrices(p, g)
    return pb.kernel_sigmas(G_left, p.r), pb.kernel_sigmas(G_right, p.r)


def is_nondegenerate(smin, smax):
    """Whether a pairing with kernel singular value ``smin`` and largest
    singular value ``smax`` (see :func:`point_regularity_sigmas`) counts as
    nondegenerate."""
    return smin > REGULARITY_RTOL * max(smax, 1e-300)


def _assert_point_regular(p, g):
    left, right = point_regularity_sigmas(p, g)
    for side, (smin, smax) in (("right", right), ("left", left)):
        if not is_nondegenerate(smin, smax):
            raise SingularError(
                f"{p.name}: two-point form degenerate at the current element "
                f"({side} pairing sigma_min = {smin:.3e})"
            )


def mirror_center(p, g):
    """First guess for the element after g: g's own displacement repeated,
    i.e. the coordinates of g in the chart at its source unit, applied at the
    unit over its target."""
    bk = p.backend
    return bk.retract(bk.identity(bk.target(g)), bk.coords(bk.identity(bk.source(g)), g))


def step(p, g, options: Optional[SolverOptions] = None):
    """Advance one step from g; returns a StepResult with the next element.

    The current element is assumed to lie on the constraint set (``evolve``
    checks the initial condition); regularity at g is checked here and a
    SingularError raised when it fails.
    """
    opts = options or SolverOptions()
    bk = p.backend
    if p.domain_guard is not None:
        p.domain_guard(g)
    _assert_point_regular(p, g)

    center = mirror_center(p, g)
    if p.domain_guard is not None:
        p.domain_guard(center)

    r = pb.residual_at(p, g, center)
    rnorm = float(np.max(np.abs(r)))
    history = [rnorm]
    cond_est = None
    iters = 0

    while rnorm > opts.tol_residual:
        if iters >= opts.max_iters:
            raise NoConvergenceError(
                f"{p.name}: no convergence after {iters} Newton iterations "
                f"(residual {rnorm:.3e})",
                iterations=iters,
                residual_norm=rnorm,
            )
        lu, piv, cond_est = factor_newton_matrix(p, pb.newton_matrix(p, g, center))
        if not np.isfinite(cond_est) or cond_est > opts.cond_limit:
            raise SingularError(
                f"{p.name}: Newton matrix condition estimate {cond_est:.3e} "
                f"exceeds limit {opts.cond_limit:.1e}"
            )
        du = scipy.linalg.lu_solve((lu, piv), -r)
        merit0 = 0.5 * float(r @ r)
        t = 1.0
        accepted = False
        for _ in range(opts.max_backtracks + 1):
            try:
                cand = bk.retract(center, t * du)
                if p.domain_guard is not None:
                    p.domain_guard(cand)
                r_try = pb.residual_at(p, g, cand)
            except (SingularError, ChartDomainError, NotComposableError):
                t *= 0.5
                continue
            merit = 0.5 * float(r_try @ r_try)
            if merit <= (1.0 - 2.0 * ARMIJO_C1 * t) * merit0 or (
                float(np.max(np.abs(r_try))) <= opts.tol_residual
            ):
                center = cand  # recenter the chart at the accepted iterate
                r = r_try
                accepted = True
                break
            t *= 0.5
        iters += 1
        if not accepted:
            raise NoConvergenceError(
                f"{p.name}: line search stalled at iteration {iters} "
                f"(residual {rnorm:.3e})",
                iterations=iters,
                residual_norm=rnorm,
            )
        rnorm = float(np.max(np.abs(r)))
        history.append(rnorm)

    if cond_est is None:
        # already converged at the initial guess; factor once for the report
        _, _, cond_est = factor_newton_matrix(p, pb.newton_matrix(p, g, center))

    lam, _ = pb.lagrange_multipliers(p, g, center)
    return StepResult(
        next=center,
        multipliers=lam,
        iterations=iters,
        residual_norm=rnorm,
        jacobian_condition_estimate=float(cond_est),
        residual_history=history,
    )


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


def hamiltonian_step(p, g, options: Optional[SolverOptions] = None):
    """One step in momentum form: (outgoing covector of g, outgoing covector
    of the solved next element)."""
    res = step(p, g, options)
    return legendre_plus(p, g), legendre_plus(p, res.next)
