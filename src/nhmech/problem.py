"""Discrete nonholonomic problem container and the pieces the solver needs.

An :class:`NhProblem` bundles a groupoid backend, a discrete Lagrangian on it,
the constraint submanifold (zero set of ``phi``) and the constraint
distribution on the base.  The dynamics is the projected discrete
Euler-Lagrange condition

    left_deriv(L, g, X_a(beta(g))) - right_deriv(L, h, X_a(beta(g))) = 0

over a basis X_a of the distribution at the matching point, together with
``phi(h) = 0``; ``residual_at`` stacks the projected rows first and the
constraint rows after them.  A :class:`StepFrame` evaluates once what a step
from g needs of g alone; ``newton_jacobian_fd``, ``groupoid.cross_form`` and
``regularity_matrices`` are the references for its Newton matrix and tests.
The README ("Built-in systems", "Library use") gives the design.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack, null_space

from . import groupoid as gpd
from .errors import ConstraintViolationError, RankDeficientAnnihilator, SingularError

TOL_CONSTRAINT = 1e-9
NULLSPACE_RTOL = 1e-10
EPS = np.finfo(float).eps
PROJECTION_RTOL = 16 * EPS


@dataclass(frozen=True)
class Distribution:
    """Constraint distribution on the base manifold, of rank r = n - k.

    ``basis(x)`` returns an (n, r) array of fiber-chart directions spanning
    D_c at x; ``annihilator(x)`` returns (n, k) covector components vanishing
    on the span.
    """

    basis: Callable
    annihilator: Callable


@dataclass(frozen=True)
class ConstraintSet:
    """Zero set of phi inside the groupoid, codimension ``codim``; ``phi(g)``
    returns a float (codim,) array.

    ``left_jac(g)`` / ``right_jac(g)``, when given, return the (codim, n)
    float arrays of exact left/right chart gradients of the components of
    phi; the problem differences phi where they are not given.
    """

    codim: int
    phi: Callable
    left_jac: Optional[Callable] = None
    right_jac: Optional[Callable] = None


@dataclass(frozen=True)
class Lagrangian:
    """Scalar function on the groupoid with optional exact chart derivatives.

    ``left_grad(g)`` / ``right_grad(g)`` return the (n,) float gradients of L
    in the left/right chart at g.  ``mixed_hess(g)`` returns the (n, n) float
    mixed second derivative H(g), column j being d/dt
    right_grad(retract(g, t e_j)) at t=0.  Left and right translations
    commute, so the two-point form of L is ``cross(g, a, b) = -a^T H(g) b``.
    The problem differences what is not given (see :class:`NhProblem`).
    """

    eval: Callable
    left_grad: Optional[Callable] = None
    right_grad: Optional[Callable] = None
    mixed_hess: Optional[Callable] = None


@dataclass
class NhProblem:
    """A discrete nonholonomic system on a groupoid backend.

    Building it binds ``phi(g)`` (the model's own) and the five chart
    derivatives a step calls: ``left_grad``, ``right_grad`` and
    ``mixed_hess`` of L and the (k, n) ``phi_left_jac``, ``phi_right_jac``,
    each the model's callable where one is given, else a central difference
    (``mixed_hess`` at the wider step when the right gradient is itself a
    difference); ``dataclasses.replace`` binds them again.  It keeps no state
    between steps.  The README ("Built-in systems") gives the contract of the
    model callables.
    """

    name: str
    backend: object
    lagrangian: Lagrangian
    constraints: ConstraintSet
    distribution: Distribution
    params: dict = field(default_factory=dict)
    declared_reversible: Optional[bool] = None
    momentum_specs: dict = field(default_factory=dict)
    coord_names: Optional[list] = None
    initial_builder: Optional[Callable] = None
    sample_states: Optional[Callable] = None

    def __post_init__(self):
        partial, bk = functools.partial, self.backend
        left, right = gpd.left_jacobian, gpd.right_jacobian
        lag, con = self.lagrangian, self.constraints
        self.phi = con.phi
        self.left_grad = lag.left_grad or partial(left, bk, lag.eval)
        self.right_grad = lag.right_grad or partial(right, bk, lag.eval)
        step = gpd.FD_STEP if lag.right_grad else gpd.FD_STEP_OUTER
        self.mixed_hess = lag.mixed_hess or partial(left, bk, self.right_grad, step=step)
        self.phi_left_jac = con.left_jac or partial(left, bk, self.phi)
        self.phi_right_jac = con.right_jac or partial(right, bk, self.phi)

    @property
    def n(self):
        return self.backend.fiber_dim

    @property
    def r(self):
        return self.n - self.k

    @property
    def k(self):
        return self.constraints.codim

    def to_rows(self, elements):
        """A non-empty sequence of elements as the rows of one float array,
        each row in ``coord_names`` order: the element's parts (or the
        element itself when it is not a tuple), each flattened.  Each part
        is stacked across the elements once."""
        n = len(elements)
        parts = zip(*elements) if isinstance(elements[0], tuple) else (elements,)
        rows = [np.array(part, dtype=float).reshape(n, -1) for part in parts]
        return np.concatenate(rows, axis=1)

    def to_row(self, g):
        """The element as one flat row in ``coord_names`` order (see
        :meth:`to_rows`)."""
        return self.to_rows([g])[0]

    def assert_on_constraint(self, g, tol=TOL_CONSTRAINT, label="element"):
        v = float(np.max(np.abs(self.phi(g)))) if self.k else 0.0
        if not v <= tol:  # a NaN |phi| is off the constraint set too
            raise ConstraintViolationError(
                f"{self.name}: {label} violates the discrete constraints (|phi| = {v:.3e})"
            )


# ---------------------------------------------------------------------------
# the pieces of one step


def require_finite(M, what):
    """Raise SingularError unless every entry of the array M is finite; returns
    the largest magnitude in M (the LAPACK max-abs norm, which is NaN or inf
    exactly when one entry is)."""
    scale = lapack.dlange("M", M)
    if not math.isfinite(scale):
        raise SingularError(f"{what} has non-finite entries")
    return scale


@functools.cache
def _gelsd_workspace(m, k):
    """The cutoff eps * max(m, k) and the dgelsd workspace query (work, iwork,
    info) for an (m, k) least-squares problem with one right-hand side; they
    depend on the shape only."""
    cond = EPS * max(m, k)
    return (cond, *lapack.dgelsd_lwork(m, k, 1, cond))


def least_squares(A, b, what):
    """Solution x and rank of the least-squares problem A x = b for a tall (m, k)
    A and a right-hand side b of length m: LAPACK gelsd with the cutoff
    eps * max(m, k) of ``np.linalg.lstsq``, after a finiteness check of A
    (named what).  The caller checks b."""
    require_finite(A, what)
    m, k = A.shape
    cond, work, iwork, info = _gelsd_workspace(m, k)
    if info == 0:
        x, _, rank, info = lapack.dgelsd(A, b, int(work), iwork, cond, False, False)
    if info != 0:
        raise SingularError(f"{what}: least squares failed (info {info})")
    return x[:k], rank


class StepFrame:
    """The quantities of a step from g that depend on g alone, each
    evaluated once: the distribution basis B at beta(g) (and ``neg_bt`` =
    -B^T), ``left_grad(g)`` and its projection ``left_rows``; on first use,
    the right test (:meth:`right_sigmas`) and the mirror guess
    (:meth:`guess`), which a call that raises does not keep.  ``record`` is
    (element, (H, left phi gradient)) at the last element the frame took
    them at (:meth:`_second_order`), starting as the record handed in.  The
    frame keeps the right gradient of the last candidate for
    :meth:`multipliers`.  The README ("Library use") gives the reasons.
    """

    def __init__(self, p, g, record=(None, None)):
        self.p = p
        self.g = g
        self.beta = np.asarray(p.backend.target(g), dtype=float)
        self.basis = np.asarray(p.distribution.basis(self.beta), dtype=float)
        self.neg_bt = -self.basis.T
        self.left_grad = p.left_grad(g)
        self.left_rows = self.left_grad @ self.basis
        self.record = record
        self._last = (None, None)
        self._right = self._guess = None

    def guess(self):
        """The first guess of a step from g, ``backend.mirror(g)`` (g's
        displacement repeated)."""
        if self._guess is None:
            self._guess = self.p.backend.mirror(self.g)
        return self._guess

    def del_rows(self, h):
        """Projected discrete Euler-Lagrange rows for a candidate h."""
        right = self.p.right_grad(h)
        self._last = (h, right)
        return self.left_rows - right @ self.basis

    def residual(self, h):
        """Stacked residual [projected DEL rows; phi(h) rows] for a candidate h."""
        return np.concatenate([self.del_rows(h), self.p.phi(h)])

    def newton_matrix(self, center):
        """Jacobian of the residual in the chart at ``center``.

        The projected DEL rows depend on the candidate only through
        -right_grad(center) . X_a, so they differentiate to -B^T H(center);
        the constraint rows differentiate to the left chart gradient of phi.
        """
        H, phi_jac = self._second_order(center)
        return np.concatenate((self.neg_bt @ H, phi_jac))

    def _second_order(self, h):
        """H(h) and the left gradient of phi at h, kept in the frame's record.

        The record is keyed by identity, not equality: an element is never
        modified in place, so the record's element still has the values the
        pair was taken at, and a copy with equal values evaluates afresh.
        """
        at, pair = self.record
        if at is not h:
            pair = self.p.mixed_hess(h), self.p.phi_left_jac(h)
            self.record = (h, pair)
        return pair

    def multipliers(self, h):
        """Multipliers expanding the difference covector over the annihilator
        basis at beta(g), by :func:`least_squares`."""
        p = self.p
        last, right = self._last
        F = self.left_grad - (right if h is last else p.right_grad(h))
        require_finite(F, f"{p.name}: difference covector")
        A = np.asarray(p.distribution.annihilator(self.beta), dtype=float)
        lam, rank = least_squares(A, F, f"{p.name}: annihilator basis")
        if rank < lam.size:
            raise RankDeficientAnnihilator(
                f"{p.name}: annihilator basis has rank {rank} < {lam.size}"
            )
        return lam

    def right_sigmas(self):
        """Kernel singular values (smin, smax) of the right pairing at g, with
        no pairing formed: :func:`_projected_sigmas` of the columns of H B."""
        if self._right is None:
            H, _ = self._second_order(self.g)
            self._right = _projected_sigmas((H @ self.basis).T, self.p.phi_right_jac(self.g),
                                            self.p.r)
        return self._right

    def left_sigmas(self, h, basis=None):
        """The same for the left pairing at h, from the rows of X^T H(h), with
        X = ``basis`` or else B (the basis at alpha(h) for a root h)."""
        H, phi_jac = self._second_order(h)
        X = self.basis if basis is None else basis
        return _projected_sigmas(X.T @ H, phi_jac, self.p.r)


def step_frame(p, g, frame=None):
    """``frame`` when it was built for g on p, a fresh :class:`StepFrame`
    when it is None; a frame of another element or problem is a ValueError."""
    if frame is None:
        return StepFrame(p, g)
    if frame.g is not g or frame.p is not p:
        raise ValueError(f"{p.name}: the step frame was built for another element or problem")
    return frame


def residual_at(p, g, h):
    """Stacked residual [projected DEL rows; phi(h) rows] for a candidate h."""
    return StepFrame(p, g).residual(h)


def newton_jacobian_fd(p, g, center):
    """Central-difference Jacobian of the residual in the chart at ``center``
    (reference for :meth:`StepFrame.newton_matrix`)."""
    return gpd.left_jacobian(p.backend, lambda h: residual_at(p, g, h), center)


def lagrange_multipliers(p, g, h):
    """Multipliers at the next element h (see :meth:`StepFrame.multipliers`)
    and the max-abs residual of their fit, for consistency checks."""
    frame = StepFrame(p, g)
    lam = frame.multipliers(h)
    F = frame.left_grad - p.right_grad(h)
    A = np.asarray(p.distribution.annihilator(frame.beta), dtype=float)
    return lam, float(np.abs(F - A @ lam).max())


# ---------------------------------------------------------------------------
# regularity pairings and their singular values


def regularity_matrices(p, g):
    """The two nondegeneracy pairings of the two-point form
    cross(g, a, b) = -a^T H(g) b at g.

    Returns (G_left, G_right):

    * ``G_left[a, j]  = cross(g, X_a(alpha(g)), W_j)`` with W_j spanning the
      left tangent directions at g; its right kernel must be trivial.
    * ``G_right[i, b] = cross(g, V_i, X_b(beta(g)))`` with V_i spanning the
      right tangent directions; its left kernel must be trivial.

    W and V are ``scipy.linalg.null_space`` of the left and right constraint
    gradients (all of R^n for a zero gradient).

    They are the reference for :meth:`StepFrame.left_sigmas` and
    :meth:`StepFrame.right_sigmas`.
    """
    Xa, B = (np.asarray(p.distribution.basis(np.asarray(x, dtype=float)), dtype=float)
             for x in (p.backend.source(g), p.backend.target(g)))
    H = p.mixed_hess(g)
    G_left = -Xa.T @ H @ null_space(p.phi_left_jac(g))
    G_right = -null_space(p.phi_right_jac(g)).T @ H @ B
    return G_left, G_right


def _require_finite_floats(values, what):
    """Raise SingularError unless every float in ``values`` is finite."""
    if not all(map(math.isfinite, values)):
        raise SingularError(f"{what} has non-finite entries")


def _pair_sigmas(a, b):
    """(sigma_2, sigma_1) of the 2x3 matrix with finite rows a and b (lists of
    three floats), in closed form.

    With a and b divided by the largest magnitude of the matrix,
    sigma_1^2 = (|a|^2 + |b|^2 + hypot(|a|^2 - |b|^2, 2 a.b)) / 2, and
    sigma_2 = |a| |b_perp| / sigma_1, where |a| |b_perp| = |a x b| is the
    hypot of the 2x2 minors of the matrix.
    """
    scale = max(map(abs, a + b))
    if scale == 0.0:
        return 0.0, 0.0
    a0, a1, a2 = a[0] / scale, a[1] / scale, a[2] / scale
    b0, b1, b2 = b[0] / scale, b[1] / scale, b[2] / scale
    aa, bb = a0 * a0 + a1 * a1 + a2 * a2, b0 * b0 + b1 * b1 + b2 * b2
    ab = a0 * b0 + a1 * b1 + a2 * b2
    wedge = math.hypot(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    smax = math.sqrt(0.5 * (aa + bb + math.hypot(aa - bb, 2.0 * ab)))
    return scale * (wedge / smax), scale * smax


def _projected_sigmas(M, grad, rank_needed):
    """(sigma_{rank_needed}, sigma_max) of a pairing M W, with M an (r, n)
    array and W an orthonormal basis of the null space of the (k, n)
    constraint gradient ``grad`` (all of R^n when it is zero).

    M W has the singular values of M (I - Q Q^T), Q an orthonormal basis of
    the gradient's row space.  A 1x3 gradient takes Q = grad / |grad| on
    floats and :func:`_pair_sigmas`, with a projected row within
    ``PROJECTION_RTOL`` of its row's largest magnitude taken as zero (so rows
    along the gradient give (0, 0)).  Other gradients take a LAPACK QR of
    grad^T (dgeqrf) and apply the transpose of its full orthogonal factor to
    M^T (dormqr) without forming it: the first k rows of the product lie
    along the gradient's row space and the last n - k are (M W)^T.  A 2x2
    block takes :func:`_pair_sigmas` with a zero third column, any other
    :func:`kernel_sigmas`.  A diagonal entry of R within ``NULLSPACE_RTOL``
    of the largest (dependent rows, where the factor would miss a null
    direction) is a SingularError.  dormqr gets LAPACK's minimum workspace,
    one entry per row of M: with fewer reflectors than its block size it
    runs unblocked and reads no more.
    """
    if grad.shape == (1, 3):
        grad, rows = grad.tolist()[0], M.tolist()
        _require_finite_floats(grad, "constraint gradient")
        _require_finite_floats(rows[0] + rows[1], "two-point pairing")
        norm = math.hypot(*grad)
        if norm == 0.0:
            return _pair_sigmas(*rows)
        u0, u1, u2 = grad[0] / norm, grad[1] / norm, grad[2] / norm
        projected = []
        for m0, m1, m2 in rows:
            d = m0 * u0 + m1 * u1 + m2 * u2
            row = [m0 - d * u0, m1 - d * u1, m2 - d * u2]
            if max(map(abs, row)) <= PROJECTION_RTOL * max(abs(m0), abs(m1), abs(m2)):
                row = [0.0, 0.0, 0.0]
            projected.append(row)
        return _pair_sigmas(*projected)
    if require_finite(grad, "constraint gradient") == 0.0:
        return kernel_sigmas(M, rank_needed)
    qr, tau, _, info = lapack.dgeqrf(grad.T)
    if info == 0:
        diag = list(map(abs, qr.diagonal().tolist()))
        if min(diag) <= NULLSPACE_RTOL * max(diag):
            raise SingularError("constraint gradient has linearly dependent rows")
        require_finite(M, "two-point pairing")
        rotated, _, info = lapack.dormqr("L", "T", qr, tau, M.T, max(1, M.shape[0]))
    if info != 0:
        raise SingularError(f"constraint gradient QR failed (info {info})")
    block = rotated[tau.size:]
    if block.shape == (2, 2):
        (a0, a1), (b0, b1) = block.tolist()
        _require_finite_floats((a0, a1, b0, b1), "two-point pairing")
        return _pair_sigmas([a0, a1, 0.0], [b0, b1, 0.0])
    return kernel_sigmas(block, rank_needed)


def kernel_sigmas(M, rank_needed):
    """(sigma_{rank_needed}, sigma_max) of a two-point pairing matrix, a 2-D
    array, from LAPACK dgesdd (singular values only).

    The pairing is nondegenerate when it couples all rank_needed distribution
    directions, i.e. when its rank_needed-th singular value is positive.  In
    the generic square case this is the usual smallest singular value; when
    one leg of the pairing has extra admissible directions (a constraint
    function that does not see that leg, as for a holonomic arrival-point
    constraint) the matrix is rectangular and the surplus directions must not
    count as degeneracy.
    """
    require_finite(M, "two-point pairing")
    _, s, _, info = lapack.dgesdd(M, compute_uv=0)
    if info != 0:
        raise SingularError(f"two-point pairing SVD failed (info {info})")
    smax = float(s[0]) if s.size else 0.0
    if s.size < rank_needed:
        return 0.0, smax
    return float(s[rank_needed - 1]), smax
