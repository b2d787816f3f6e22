"""Discrete nonholonomic problem container and the pieces the solver needs.

An :class:`NhProblem` bundles a groupoid backend, a discrete Lagrangian on it,
the constraint submanifold (zero set of ``phi``) and the constraint
distribution on the base.  The dynamics is the projected discrete
Euler-Lagrange condition

    left_deriv(L, g, X_a(beta(g))) - right_deriv(L, h, X_a(beta(g))) = 0

over a basis X_a of the distribution at the matching point, together with
``phi(h) = 0`` for the next element.  ``residual_at`` stacks the projected rows
first and the constraint rows after them.

Every second-order quantity comes from the mixed second derivative
``NhProblem.mixed_hess``: the Newton matrix (``newton_matrix``) and the two
regularity pairings (``regularity_matrices``).  ``newton_jacobian_fd`` and
``groupoid.cross_form`` difference the residual and the Lagrangian directly
and serve as references for them.

What a step from g needs that depends on g alone (the distribution basis at
beta(g), the left gradient of L at g) is evaluated once, by a
:class:`StepFrame`; ``residual_at``, ``newton_matrix``, ``lagrange_multipliers``
and ``regularity_matrices`` are one-line uses of a fresh frame.  The small
dense kernels (SVD, least squares) call LAPACK directly, which skips the
wrappers' finiteness check, so each call is preceded by one of its own that
raises SingularError.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import lapack

from . import groupoid as gpd
from .errors import ConstraintViolationError, RankDeficientAnnihilator, SingularError

TOL_CONSTRAINT = 1e-9
NULLSPACE_RTOL = 1e-10
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Distribution:
    """Constraint distribution on the base manifold.

    ``basis(x)`` returns an (n, r) array of fiber-chart directions spanning
    D_c at x; ``annihilator(x)`` returns (n, k) covector components with
    k = n - r, vanishing on the span.
    """

    rank: int
    basis: Callable
    annihilator: Callable


@dataclass(frozen=True)
class ConstraintSet:
    """Zero set of phi inside the groupoid, codimension ``codim``.

    ``left_jac(g)`` / ``right_jac(g)``, when given, return the (codim, n)
    arrays of exact left/right chart gradients of the components of phi.
    """

    codim: int
    phi: Callable
    left_jac: Optional[Callable] = None
    right_jac: Optional[Callable] = None


@dataclass(frozen=True)
class Lagrangian:
    """Scalar function on the groupoid with optional exact chart derivatives.

    ``left_grad(g)`` / ``right_grad(g)`` return the (n,) gradients of L in the
    left/right chart at g.  ``mixed_hess(g)`` returns the (n, n) mixed second
    derivative H(g), column j being d/dt right_grad(retract(g, t e_j)) at t=0.
    Left and right translations commute, so the two-point form of L is
    ``cross(g, a, b) = -a^T H(g) b``.
    """

    eval: Callable
    left_grad: Optional[Callable] = None
    right_grad: Optional[Callable] = None
    mixed_hess: Optional[Callable] = None


@dataclass
class NhProblem:
    name: str
    backend: object
    lagrangian: Lagrangian
    constraints: ConstraintSet
    distribution: Distribution
    params: dict = field(default_factory=dict)
    declared_reversible: Optional[bool] = None
    momentum_specs: dict = field(default_factory=dict)
    domain_guard: Optional[Callable] = None
    is_chaplygin: bool = False
    coord_names: Optional[list] = None
    initial_builder: Optional[Callable] = None
    sample_states: Optional[Callable] = None
    # the last StepFrame's matching point (as bytes) and its distribution basis
    basis_record: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.backend.fiber_dim

    @property
    def r(self):
        return self.distribution.rank

    @property
    def k(self):
        return self.constraints.codim

    # chart derivatives: the analytic one when given, else a difference ------
    def left_grad(self, g):
        """Gradient of L in the left chart at g, an (n,) vector."""
        if self.lagrangian.left_grad is not None:
            return np.asarray(self.lagrangian.left_grad(g), dtype=float)
        return gpd.left_jacobian(self.backend, self.lagrangian.eval, g)

    def right_grad(self, g):
        """Gradient of L in the right chart at g, an (n,) vector."""
        if self.lagrangian.right_grad is not None:
            return np.asarray(self.lagrangian.right_grad(g), dtype=float)
        return gpd.right_jacobian(self.backend, self.lagrangian.eval, g)

    def mixed_hess(self, g):
        """Mixed second derivative H(g) (see :class:`Lagrangian`); without an
        analytic one, the right gradient is differenced along the left chart,
        at the wider step when that gradient is itself a difference quotient."""
        if self.lagrangian.mixed_hess is not None:
            return np.asarray(self.lagrangian.mixed_hess(g), dtype=float)
        exact = self.lagrangian.right_grad is not None
        step = gpd.FD_STEP if exact else gpd.FD_STEP_OUTER
        return gpd.left_jacobian(self.backend, self.right_grad, g, step)

    def d_left(self, g, v):
        """Left derivative of L at g along the chart direction v."""
        return float(self.left_grad(g) @ np.asarray(v, dtype=float))

    def d_right(self, g, v):
        """Right derivative of L at g along the chart direction v."""
        return float(self.right_grad(g) @ np.asarray(v, dtype=float))

    def phi(self, g):
        return np.atleast_1d(np.asarray(self.constraints.phi(g), dtype=float))

    def phi_left_jac(self, g):
        """(k, n) gradients of the components of phi in the left chart at g."""
        if self.constraints.left_jac is not None:
            return np.asarray(self.constraints.left_jac(g), dtype=float)
        return gpd.left_jacobian(self.backend, self.phi, g)

    def phi_right_jac(self, g):
        """(k, n) gradients of the components of phi in the right chart at g."""
        if self.constraints.right_jac is not None:
            return np.asarray(self.constraints.right_jac(g), dtype=float)
        return gpd.right_jacobian(self.backend, self.phi, g)

    def to_row(self, g):
        """The element as one flat row in ``coord_names`` order: its parts
        (or the element itself when it is not a tuple), each flattened."""
        parts = g if isinstance(g, tuple) else (g,)
        return np.concatenate([np.ravel(np.asarray(part, dtype=float)) for part in parts])

    def assert_on_constraint(self, g, tol=TOL_CONSTRAINT, label="element"):
        v = float(np.max(np.abs(self.phi(g)))) if self.k else 0.0
        if v > tol:
            raise ConstraintViolationError(
                f"{self.name}: {label} violates the discrete constraints (|phi| = {v:.3e})"
            )


# ---------------------------------------------------------------------------
# the pieces of one step


def require_finite(M, what):
    """Raise SingularError unless every entry of the array M is finite (the
    LAPACK max-abs norm is NaN or inf exactly when one entry is)."""
    if not math.isfinite(lapack.dlange("M", M)):
        raise SingularError(f"{what} has non-finite entries")


def _svd(M, what, compute_uv=1):
    """Singular values and right singular vectors (rows of vh) of M by LAPACK
    gesdd, after the finiteness check."""
    require_finite(M, what)
    _, s, vh, info = lapack.dgesdd(M, compute_uv=compute_uv)
    if info != 0:
        raise SingularError(f"{what} SVD failed (info {info})")
    return s, vh


@functools.cache
def _gelsd_workspace(m, k, nrhs):
    """The cutoff eps * max(m, k) and the dgelsd workspace query (work, iwork,
    info) for an (m, k) least-squares problem with nrhs right-hand sides; they
    depend on the shape only."""
    cond = EPS * max(m, k)
    return (cond, *lapack.dgelsd_lwork(m, k, nrhs, cond))


def least_squares(A, b, what):
    """Solution x and rank of the least-squares problem A x = b for a tall (m, k)
    A and a right-hand side b of length m, or one per column of an (m, nrhs)
    b: LAPACK gelsd with the cutoff eps * max(m, k) of ``np.linalg.lstsq``,
    after a finiteness check of A (named what).  The caller checks b."""
    require_finite(A, what)
    m, k = A.shape
    cond, work, iwork, info = _gelsd_workspace(m, k, b.size // m)
    if info == 0:
        x, _, rank, info = lapack.dgelsd(A, b, int(work), iwork, cond, False, False)
    if info != 0:
        raise SingularError(f"{what}: least squares failed (info {info})")
    return x[:k], rank


class StepFrame:
    """The quantities of a step from g that depend on g alone, each
    evaluated once: the distribution basis B at the matching point beta(g),
    ``left_grad(g)`` and its projection ``left_grad(g) @ B``.

    The basis at alpha(g) comes from the problem's ``basis_record`` when the
    previous frame's matching point was alpha(g).  The frame keeps H(g) and
    the left gradient of phi at g from the regularity test, for a Newton
    matrix centred at g, and the right gradient of the last candidate, for
    the multipliers at the accepted iterate.
    """

    def __init__(self, p, g):
        self.p = p
        self.g = g
        self._previous = p.basis_record
        self.beta = np.asarray(p.backend.target(g), dtype=float)
        self.basis = np.asarray(p.distribution.basis(self.beta), dtype=float)
        p.basis_record = (self.beta.tobytes(), self.basis)
        self.left_grad = p.left_grad(g)
        self.left_rows = self.left_grad @ self.basis
        self._last = (None, None)
        self._at_g = None  # (H(g), left gradient of phi at g)

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
        p = self.p
        at_g = center is self.g and self._at_g
        H, phi_jac = at_g or (p.mixed_hess(center), p.phi_left_jac(center))
        return np.vstack([-self.basis.T @ H, phi_jac])

    def multipliers(self, h):
        """Multipliers expanding the difference covector over the annihilator
        basis at beta(g), by :func:`least_squares`, with the residual of the
        fit returned for consistency checks."""
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
        fit = F - A @ lam
        return lam, float(np.abs(fit).max())

    def regularity_matrices(self):
        """The two pairings of :func:`regularity_matrices` at g."""
        p, g = self.p, self.g
        key, Xa = self._previous
        alpha = np.asarray(p.backend.source(g), dtype=float)
        if alpha.tobytes() != key:
            Xa = np.asarray(p.distribution.basis(alpha), dtype=float)
        H, phi_jac = self._at_g = p.mixed_hess(g), p.phi_left_jac(g)
        G_left = -Xa.T @ H @ _nullspace(phi_jac)
        G_right = -right_tangent_basis(p, g).T @ H @ self.basis
        return G_left, G_right


def residual_at(p, g, h):
    """Stacked residual [projected DEL rows; phi(h) rows] for a candidate h."""
    return StepFrame(p, g).residual(h)


def newton_matrix(p, g, center):
    """Jacobian of the residual in the chart at ``center`` (see
    :meth:`StepFrame.newton_matrix`)."""
    return StepFrame(p, g).newton_matrix(center)


def newton_jacobian_fd(p, g, center):
    """Central-difference Jacobian of the residual in the chart at ``center``
    (reference for :func:`newton_matrix`)."""
    return gpd.left_jacobian(p.backend, lambda h: residual_at(p, g, h), center)


def lagrange_multipliers(p, g, h):
    """Multipliers and fit residual at the next element h (see
    :meth:`StepFrame.multipliers`)."""
    return StepFrame(p, g).multipliers(h)


# ---------------------------------------------------------------------------
# tangent spaces of the constraint set and regularity matrices


def _nullspace(M, rtol=NULLSPACE_RTOL):
    """Orthonormal basis (columns) of the right null space of M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    s, vh = _svd(M, "constraint gradient")
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T


def right_tangent_basis(p, g):
    """Basis of the right-invariant directions tangent to the constraint set
    at g (null space of the right chart gradient of phi)."""
    return _nullspace(p.phi_right_jac(g))


def regularity_matrices(p, g):
    """The two nondegeneracy pairings of the two-point form
    cross(g, a, b) = -a^T H(g) b at g.

    Returns (G_left, G_right):

    * ``G_left[a, j]  = cross(g, X_a(alpha(g)), W_j)`` with W_j spanning the
      left tangent directions at g; its right kernel must be trivial.
    * ``G_right[i, b] = cross(g, V_i, X_b(beta(g)))`` with V_i spanning the
      right tangent directions; its left kernel must be trivial.
    """
    return StepFrame(p, g).regularity_matrices()


def kernel_sigmas(M, rank_needed):
    """(sigma_{rank_needed}, sigma_max) of a two-point pairing matrix.

    The pairing is nondegenerate when it couples all rank_needed distribution
    directions, i.e. when its rank_needed-th singular value is positive.  In
    the generic square case this is the usual smallest singular value; when
    one leg of the pairing has extra admissible directions (a constraint
    function that does not see that leg, as for a holonomic arrival-point
    constraint) the matrix is rectangular and the surplus directions must not
    count as degeneracy.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    s, _ = _svd(M, "two-point pairing", compute_uv=0)
    smax = float(s[0]) if s.size else 0.0
    if s.size < rank_needed:
        return 0.0, smax
    return float(s[rank_needed - 1]), smax
