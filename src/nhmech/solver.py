"""Stepwise solution of the projected discrete Euler-Lagrange equations.

``step`` advances one element: the unknown is the next element, in
fiber-chart coordinates on the source fiber over the matching point, and
``newton``, the package's one damped Newton loop (``diagnostics.chi_inverse``
uses it too), drives the stacked residual (projected DEL rows, then
constraint rows) to tolerance, or to its roundoff floor when that is larger.
``evolve`` chains steps into a trajectory; once a step has needed two
Newton iterations from its mirror guess, it starts each later step from a
fifth-order prediction of its root, extrapolated from the last four roots
(off Lie groups), and drops back to third order after a step that took three
or more.  A step tests the right pairing at g before Newton and the
left pairing at its root after it, and holds the 1-norm condition estimate
of each Newton matrix, from its LU factors, to ``cond_limit``.  The
residual, the Newton matrix and both tests come from one joint evaluation
per candidate (``NhProblem.evaluate``), kept in one ``problem.StepFrame``'s
record, and the step calls LAPACK directly, each kernel after a finiteness
check of its own; a non-finite matrix or a LAPACK failure is a
SingularError, and so is an arithmetic or domain error of a model callable
or a backend kernel inside the step or in building its frame.  The README
("Library use") gives the design and the reasons for it.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lapack

from . import problem as pb
from .errors import (
    NUMERIC_FAILURES,
    ChartDomainError,
    NhError,
    NoConvergenceError,
    NotComposableError,
    SingularError,
)

ARMIJO_C1 = 1e-4
MAX_BACKTRACKS = 30
REGULARITY_RTOL = 1e-10
# evolve predicts each root from the displacements of the last PREDICTION_DEPTH
# roots (see _prediction_rows)
PREDICTION_DEPTH = 4


def _prediction_rows(depth):
    """Row j of ``evolve``'s prediction coefficients over a ring of ``depth``
    displacement slots, once j displacements have been written, the j-th to
    slot (j - 1) % depth: the backward-difference extrapolation sum over
    i = 1..m of (-1)^(i+1) C(m, i) d_i from the last m = min(j, depth) of
    them, d_1 the newest, which is exact for displacements that are a
    polynomial of degree m - 1 in the step (d_1, then 2 d_1 - d_2, ...).  A
    slot not yet written has coefficient 0.  From row depth on the rows
    repeat with period depth, so rows 1 to 2 depth - 1 serve every j."""
    rows = np.zeros((2 * depth, depth))
    for j in range(1, 2 * depth):
        m = min(j, depth)
        for i in range(1, m + 1):
            rows[j, (j - i) % depth] = (-1) ** (i + 1) * math.comb(m, i)
    return rows


_PREDICTION_ROWS = _prediction_rows(PREDICTION_DEPTH)
_RING_COLUMN = np.ones((PREDICTION_DEPTH, 1))


@dataclass
class SolverOptions:
    tol_residual: float = 1e-10
    max_iters: int = 50
    cond_limit: float = 1e14


@dataclass
class StepResult:
    next: object
    multipliers: np.ndarray
    left_grad: np.ndarray  # the frame's left gradient at g; F+ at g is left_grad @ B(beta(g))
    iterations: int
    residual_norm: float
    jacobian_condition_estimate: float
    residual_history: list = field(default_factory=list)
    backtracks: int = 0  # line-search trial points rejected over the step
    sigma_min_left: float = math.nan  # kernel singular value of the left pairing at next
    sigma_min_right: float = math.nan  # kernel singular value of the right pairing at g
    floor: float = math.nan  # roundoff floor of the residual; the step stops at max(tol, floor)
    floor_limited: bool = False  # stopped with tol < residual <= floor
    max_abs_phi: float = math.nan  # max |phi(next)|, the accepted residual's constraint rows


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


def point_regularity_sigmas(p, g, frame=None):
    """Kernel singular values of the two nondegeneracy pairings at g.

    Returns ((smin_left, smax_left), (smin_right, smax_right)); each pairing
    must couple all p.r distribution directions to count as nondegenerate.
    ``frame`` is a ``problem.StepFrame`` for g, when there is one; the basis
    at alpha(g) is evaluated here.
    """
    frame = pb.step_frame(p, g, frame)
    return frame.left_sigmas(g, p.distribution.basis(p.backend.source(g))), frame.right_sigmas()


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
    squares = sum(map(operator.mul, values, values))
    if math.isnan(squares):
        return math.nan, math.nan
    return max(map(abs, values)), 0.5 * squares


def _within_limit(p, factors, opts):
    """``factors`` = (J, lu, piv, cond) of a Newton matrix; a condition
    estimate that is not finite or exceeds ``opts.cond_limit`` is a
    SingularError."""
    cond_est = factors[3]
    if not math.isfinite(cond_est) or cond_est > opts.cond_limit:
        raise SingularError(
            f"{p.name}: Newton matrix condition estimate {cond_est:.3e} "
            f"exceeds limit {opts.cond_limit:.1e}"
        )
    return factors


def newton(p, residual, factored, center, g, opts, ahead=None):
    """Damped Newton iteration for ``residual`` = 0 on the source fiber of
    ``center``, with ``factored(h)`` the ``problem.factor_newton_matrix`` of
    its matrix in the chart at an iterate h and ``g`` the scale of the
    roundoff floor; returns the StepResult fields it owns, as a dict, with
    ``moved``, the sum of ``ahead`` and the accepted chart steps (None for
    neither).  ``ahead``, when given, is the chart displacement of a
    predicted ``center`` from the guess it was predicted from; a predicted
    center takes at least one correction, since the roundoff floor does not
    protect the constraint rows of an uncorrected guess."""
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
    # iteration stops when it lies above the tolerance.  The product is on
    # Python floats, so a floor that overflows is inf without a warning.
    J, lu, piv, cond_est = _within_limit(p, factored(center), opts)
    parts = g if isinstance(g, tuple) else (g,)
    gmax = max(max(map(abs, part.ravel().tolist())) for part in parts)
    floor = float(pb.EPS) * lapack.dlange("I", J) * max(1.0, gmax)
    stop = max(opts.tol_residual, floor)
    moved = ahead
    while rnorm > stop or not iters and ahead is not None:
        if iters >= opts.max_iters:
            raise NoConvergenceError(
                f"{p.name}: no convergence after {iters} Newton iterations "
                f"(residual {rnorm:.3e})",
                iterations=iters,
                residual_norm=rnorm,
            )
        if iters:
            _, lu, piv, cond_est = _within_limit(p, factored(center), opts)
        du, info = lapack.dgetrs(lu, piv, -r)
        if info != 0:
            raise SingularError(f"{p.name}: Newton solve failed (info {info})")
        t = 1.0
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            try:
                # a full step takes du as it is: one numpy multiply less per iteration
                chart_step = du if t == 1.0 else t * du
                cand = bk.retract(center, chart_step)
                r_try = residual(cand)
            except (SingularError, ChartDomainError, NotComposableError, *NUMERIC_FAILURES):
                t *= 0.5
                backtracks += 1
                continue
            rnorm_try, merit_try = _norm_and_merit(r_try)
            if merit_try <= (1.0 - 2.0 * ARMIJO_C1 * t) * merit or rnorm_try <= stop:
                # recenter the chart at the accepted iterate
                center, r, rnorm, merit = cand, r_try, rnorm_try, merit_try
                moved = chart_step if moved is None else moved + chart_step
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
                backtracks=backtracks, floor=floor, floor_limited=rnorm > opts.tol_residual,
                moved=moved)


def step(p, g, options: Optional[SolverOptions] = None, frame=None):
    """Advance one step from g; returns a StepResult with the next element.

    The current element is assumed to lie on the constraint set (``evolve``
    checks the initial condition).  The right pairing is tested at g before
    Newton and the left pairing at the accepted root after it; either failing
    is a SingularError.  So is an ArithmeticError or ValueError raised by a
    model callable or a backend kernel in the step (chained as the cause);
    in the line search it refuses the trial point instead.

    ``frame`` is a ``problem.StepFrame`` built for g on p, or None for a
    fresh one (another element's frame is a ValueError); the step starts
    from its guess and leaves in its ``moved`` the root's chart displacement
    from the mirror guess (None when the step started from the mirror guess
    and accepted it).  A frame that a
    ``diagnostics.regularity_report`` has used hands the step its right
    test, its first guess and the evaluation and factored Newton matrix
    there; the step evaluates them in the same order either way, so the
    result is the same.
    """
    opts = options or SolverOptions()
    frame = pb.step_frame(p, g, frame)
    try:
        if frame.record[0] is not g and p.backend.base_dim == 0:
            # over one point g is the first guess: its evaluation serves the
            # right test too, so the step forms H(g) once (the guess, with its
            # chart-cut check, still comes after the test)
            frame.evaluation(g)
        sigma_right = _assert_regular(p, "right", frame.right_sigmas(), "current element")
        center = frame.guess()  # g's displacement repeated, then the frame's prediction
        # bound methods of the frame, so a Newton matrix centred at g reuses
        # H(g) and the one a report factored at the guess is not factored again
        solved = newton(p, frame.residual, frame.factored, center, g, opts, frame.ahead)
        frame.moved = solved["moved"]  # for evolve's next prediction; no StepResult field
        del solved["moved"]
        h = solved["next"]  # alpha(h) = beta(g), so the left test at h takes the frame's basis
        sigma_left = _assert_regular(p, "left", frame.left_sigmas(h), "next element")
        phi = frame.evaluation(h)[1].tolist()
        return StepResult(multipliers=frame.multipliers(h), left_grad=frame.left_grad,
                          sigma_min_left=sigma_left, sigma_min_right=sigma_right,
                          max_abs_phi=max(map(abs, phi), default=0.0), **solved)
    except NUMERIC_FAILURES as exc:
        raise _numeric_failure(p, exc) from exc


def _numeric_failure(p, exc):
    """The SingularError that ``exc``, an ArithmeticError or ValueError of a
    model callable or backend kernel in a step or its frame, becomes."""
    return SingularError(f"{p.name}: arithmetic failure in the step ({exc})")


def evolve(p, g0, n_steps, options: Optional[SolverOptions] = None):
    """Chain ``n_steps`` steps from g0 (checked against the constraints once).

    Each step's frame starts with the record of the frame before it (see
    ``problem.StepFrame``).  From the first step that took two or more
    Newton iterations from its mirror guess on, each frame also gets a
    prediction of its root, ``ahead`` = 4 d_1 - 6 d_2 + 4 d_3 - d_4, from
    the displacements d (``StepFrame.moved``) of the last four roots from
    their mirror guesses: a fifth-order first guess where the mirror is a
    first-order one.  While fewer roots are known it takes d_1, then
    2 d_1 - d_2, then 3 d_1 - 3 d_2 + d_3.  The displacements sit in a ring
    of PREDICTION_DEPTH slots, so a prediction costs one row write and one
    product with a fixed coefficient row.  A step that took three or more
    iterations from its prediction shows a path too coarse for the high
    order, whose extrapolation amplifies the error of each displacement: the
    ring then keeps that step's displacement and the one before it, so the
    next guess is 2 d_1 - d_2, and the order climbs back one step at a time
    (on a finely resolved path no predicted step takes three).  A step that
    converges in one iteration from the mirror has nothing to save, and on a
    groupoid over one point (a Lie group) the mirror guess is g itself, whose
    evaluation the record holds, so there evolve never predicts.  Any solver
    error, in a step or in building its frame, is re-raised with
    ``step_index`` set to the failing step; an ArithmeticError or ValueError
    in building the frame becomes the SingularError that ``step`` makes of
    one inside it.
    """
    opts = options or SolverOptions()
    p.assert_on_constraint(g0, label="initial element")
    elements = [g0]
    results = []
    g = g0
    record = (None, None)
    lie = p.backend.base_dim == 0
    ahead = ring = None  # the next step's prediction; the last displacements
    written = 0  # the ring's row of _PREDICTION_ROWS: displacements written, below 2 depth
    for k in range(int(n_steps)):
        try:
            frame = pb.StepFrame(p, g, record, ahead)
            res = step(p, g, opts, frame)
            record = frame.record
        except NUMERIC_FAILURES as exc:  # only the frame's build: step converts its own
            failure = _numeric_failure(p, exc)
            failure.step_index = k
            raise failure from exc
        except NhError as exc:
            exc.step_index = k
            raise
        if ring is not None and res.iterations > 2:
            # too coarse a path: d_1 to slot 0, this step's d after it, so
            # the next guess is 2 d_1 - d_2
            ring[0] = ring[(written - 1) % PREDICTION_DEPTH]
            written = 1
        if ring is None and res.iterations > 1 and not lie:
            # every slot d_1, by a product rather than a call: an unwritten
            # slot is weighted 0, so it must only be finite
            ring = frame.moved * _RING_COLUMN
        if ring is not None:
            ring[written % PREDICTION_DEPTH] = frame.moved
            written = written + 1 if written < 2 * PREDICTION_DEPTH - 1 else PREDICTION_DEPTH
            ahead = _PREDICTION_ROWS[written] @ ring
        elements.append(res.next)
        results.append(res)
        g = res.next
    return Trajectory(problem=p, elements=elements, results=results)


# ---------------------------------------------------------------------------
# discrete Legendre transforms


def legendre_minus(p, h):
    """Incoming momentum at alpha(h): components right_deriv(L, h, X_a)."""
    x = p.backend.source(h)
    return NhCovector(base=x.copy(), components=p.right_grad(h) @ p.distribution.basis(x))


def legendre_plus(p, g):
    """Outgoing momentum at beta(g): components left_deriv(L, g, X_a), the
    projected left gradient of a step frame from g."""
    frame = pb.StepFrame(p, g)
    return NhCovector(base=frame.beta.copy(), components=frame.left_rows)
