"""Discrete nonholonomic problem container and the pieces the solver needs.

An :class:`NhProblem` bundles a groupoid backend, a discrete Lagrangian on it,
the constraint submanifold (zero set of ``phi``) and the constraint
distribution on the base.  The dynamics is the projected discrete
Euler-Lagrange condition

    left_deriv(L, g, X_a(beta(g))) - right_deriv(L, h, X_a(beta(g))) = 0

over a basis X_a of the distribution at the matching point, together with
``phi(h) = 0`` for the next element.  ``residual`` stacks the projected rows
first and the constraint rows after them.

Every second-order quantity comes from the mixed second derivative
``NhProblem.mixed_hess``: the Newton matrix (``newton_matrix``) and the two
regularity pairings (``regularity_matrices``).  ``newton_jacobian_fd`` and
``groupoid.cross_form`` difference the residual and the Lagrangian directly
and serve as references for them.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import groupoid as gpd
from .errors import ConstraintViolationError, RankDeficientAnnihilator

TOL_CONSTRAINT = 1e-9
NULLSPACE_RTOL = 1e-10


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
    h: Optional[float] = None
    params: dict = field(default_factory=dict)
    declared_reversible: Optional[bool] = None
    momentum_specs: dict = field(default_factory=dict)
    domain_guard: Optional[Callable] = None
    is_chaplygin: bool = False
    coord_names: Optional[list] = None
    initial_builder: Optional[Callable] = None
    sample_states: Optional[Callable] = None

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
# residual assembly


def del_covector(p, g, h):
    """Full difference covector F(v) = d_left(L, g, v) - d_right(L, h, v)
    as components over the fiber chart directions."""
    return p.left_grad(g) - p.right_grad(h)


def _basis_at_match(p, g):
    return np.asarray(p.distribution.basis(p.backend.target(g)), dtype=float)


def del_projected(p, g, h):
    """Projected discrete Euler-Lagrange rows over the distribution basis at
    the matching point beta(g)."""
    B = _basis_at_match(p, g)
    return p.left_grad(g) @ B - p.right_grad(h) @ B


def residual_at(p, g, h):
    """Stacked residual [projected DEL rows; phi(h) rows] for a candidate h."""
    return np.concatenate([del_projected(p, g, h), p.phi(h)])


def residual(p, g, u, center=None):
    """Residual as a function of fiber-chart coordinates u around ``center``
    (default: the unit over beta(g))."""
    if center is None:
        center = p.backend.identity(p.backend.target(g))
    return residual_at(p, g, p.backend.retract(center, np.asarray(u, dtype=float)))


def newton_matrix(p, g, center):
    """Jacobian of the residual in the chart at ``center``.

    The projected DEL rows depend on the candidate only through
    -right_grad(center) . X_a, so they differentiate to -B^T H(center) with B
    the distribution basis at beta(g); the constraint rows differentiate to
    the left chart gradient of phi.
    """
    B = _basis_at_match(p, g)
    return np.vstack([-B.T @ p.mixed_hess(center), p.phi_left_jac(center)])


def newton_jacobian_fd(p, g, center):
    """Central-difference Jacobian of the residual in the chart at ``center``
    (reference for :func:`newton_matrix`)."""
    return gpd.left_jacobian(p.backend, lambda h: residual_at(p, g, h), center)


def lagrange_multipliers(p, g, h):
    """Multipliers expanding the difference covector over the annihilator
    basis at beta(g); least squares, with the residual of the fit returned
    for consistency checks."""
    F = del_covector(p, g, h)
    A = np.asarray(p.distribution.annihilator(p.backend.target(g)), dtype=float)
    lam, res, rank, sv = np.linalg.lstsq(A, F, rcond=None)
    if rank < A.shape[1]:
        raise RankDeficientAnnihilator(
            f"{p.name}: annihilator basis has rank {rank} < {A.shape[1]}"
        )
    fit = F - A @ lam
    return lam, float(np.max(np.abs(fit)))


# ---------------------------------------------------------------------------
# tangent spaces of the constraint set and regularity matrices


def _nullspace(M, rtol=NULLSPACE_RTOL):
    """Orthonormal basis (columns) of the right null space of M."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    u, s, vh = np.linalg.svd(M)
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].T


def left_tangent_basis(p, g):
    """Basis of the left-invariant directions tangent to the constraint set
    at g (null space of the left chart gradient of phi)."""
    return _nullspace(p.phi_left_jac(g))


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
    Xa = np.asarray(p.distribution.basis(p.backend.source(g)), dtype=float)
    Xb = _basis_at_match(p, g)
    H = p.mixed_hess(g)
    G_left = -Xa.T @ H @ left_tangent_basis(p, g)
    G_right = -right_tangent_basis(p, g).T @ H @ Xb
    return G_left, G_right


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
    s = np.linalg.svd(M, compute_uv=False)
    smax = float(s[0]) if s.size else 0.0
    if s.size < rank_needed:
        return 0.0, smax
    return float(s[rank_needed - 1]), smax
