"""Discrete nonholonomic problem container and the pieces the solver needs.

An :class:`NhProblem` bundles a groupoid backend, a discrete Lagrangian on it,
the constraint submanifold (zero set of ``phi``) and the constraint
distribution on the base.  The dynamics is the projected discrete
Euler-Lagrange condition

    left_deriv(L, g, X_a(beta(g))) - right_deriv(L, h, X_a(beta(g))) = 0

over a basis X_a of the distribution at the matching point, together with
``phi(h) = 0`` for the next element.  ``residual_at`` stacks the projected rows
first and the constraint rows after them.

The chart derivatives are bound once per problem (see :class:`NhProblem`).
Every second-order quantity comes from the mixed second derivative
``NhProblem.mixed_hess``: the Newton matrix (:meth:`StepFrame.newton_matrix`) and the
regularity test (:meth:`StepFrame.regularity_sigmas`).  ``newton_jacobian_fd``,
``groupoid.cross_form`` and the two regularity pairings
(``regularity_matrices``) serve as references for them.

What a step from g needs that depends on g alone (the distribution basis at
beta(g), the left gradient of L at g) is evaluated once, by a
:class:`StepFrame`; ``residual_at``, ``lagrange_multipliers`` and
``regularity_matrices`` use a fresh frame.  Two records on the problem carry
work from one step to the next: the basis at the last matching point
(``basis_record``) and H with the left phi gradient at the last element a
frame took them at (``hess_record``), which is the next step's element when
a step accepts its first guess.  The small dense kernels (QR, SVD,
least squares) call LAPACK directly, which skips the wrappers' finiteness
check, so each call is preceded by one of its own that raises SingularError.
The regularity test forms no pairing and no null space for any system: it
projects the rows of X^T H and the columns of H B off the row space of the
constraint gradient (:func:`_projected_sigmas`).  One constraint on a
3-dimensional fiber takes the unit gradient and the closed-form singular
values of a 2x3 matrix (:func:`_pair_sigmas`); other gradients take a LAPACK
QR and dgesdd (:func:`kernel_sigmas`).  The reference pairings take the null
space of a 1x3 gradient from a Householder complement (:func:`_row_complement`)
and of other gradients from dgesdd (:func:`_nullspace`).
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


def _accept(g):
    """The default domain guard: every element is in the domain."""


@dataclass
class NhProblem:
    """A discrete nonholonomic system on a groupoid backend.

    Building it binds the constraint function ``phi(g)`` (the model's own)
    and the five chart derivatives a step calls, once: ``left_grad(g)``,
    ``right_grad(g)`` and ``mixed_hess(g)`` of L and the (k, n) arrays
    ``phi_left_jac(g)``, ``phi_right_jac(g)``.  Each derivative is the
    model's callable when the :class:`Lagrangian` or :class:`ConstraintSet`
    gives one, else a central difference (``mixed_hess`` differences the
    bound right gradient, at the wider step when that gradient is itself a
    difference).  ``dataclasses.replace`` binds them again for the copy,
    with empty records.  ``domain_guard(g)`` raises for an element outside
    the model's domain.
    """

    name: str
    backend: object
    lagrangian: Lagrangian
    constraints: ConstraintSet
    distribution: Distribution
    params: dict = field(default_factory=dict)
    declared_reversible: Optional[bool] = None
    momentum_specs: dict = field(default_factory=dict)
    domain_guard: Callable = _accept
    coord_names: Optional[list] = None
    initial_builder: Optional[Callable] = None
    sample_states: Optional[Callable] = None
    # the last StepFrame's matching point (as bytes) and its distribution basis
    basis_record: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    # (element, (H, left phi gradient)) as a StepFrame last took them
    hess_record: tuple = field(default=(None, None), init=False, repr=False, compare=False)

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
    """Raise SingularError unless every entry of the array M is finite; returns
    the largest magnitude in M (the LAPACK max-abs norm, which is NaN or inf
    exactly when one entry is)."""
    scale = lapack.dlange("M", M)
    if not math.isfinite(scale):
        raise SingularError(f"{what} has non-finite entries")
    return scale


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
    evaluated once: the distribution basis B at the matching point beta(g)
    (and ``neg_bt`` = -B^T for the Newton matrix), ``left_grad(g)`` and its
    projection ``left_grad(g) @ B``.

    The basis at alpha(g) comes from the problem's ``basis_record`` when the
    previous frame's matching point was alpha(g), and H with the left
    gradient of phi from its ``hess_record`` when they were last taken at the
    same element (:meth:`_second_order`).  The frame keeps the right gradient
    of the last candidate, for the multipliers at the accepted iterate.
    """

    def __init__(self, p, g):
        self.p = p
        self.g = g
        self._previous = p.basis_record
        self.beta = np.asarray(p.backend.target(g), dtype=float)
        self.basis = np.asarray(p.distribution.basis(self.beta), dtype=float)
        self.neg_bt = -self.basis.T
        p.basis_record = (self.beta.tobytes(), self.basis)
        self.left_grad = p.left_grad(g)
        self.left_rows = self.left_grad @ self.basis
        self._last = (None, None)

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
        """H(h) and the left gradient of phi at h, recorded on the problem.

        The record is keyed by identity, not equality: an element is never
        modified in place, so the record's element still has the values the
        pair was taken at, and a copy with equal values evaluates afresh.
        """
        p = self.p
        at, pair = p.hess_record
        if at is not h:
            pair = p.mixed_hess(h), p.phi_left_jac(h)
            p.hess_record = (h, pair)
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

    def _pairing_parts(self):
        """The basis at alpha(g), H(g) and the left gradient of phi at g."""
        p, g = self.p, self.g
        key, Xa = self._previous
        alpha = np.asarray(p.backend.source(g), dtype=float)
        if alpha.tobytes() != key:
            Xa = np.asarray(p.distribution.basis(alpha), dtype=float)
        return (Xa, *self._second_order(g))

    def regularity_sigmas(self):
        """Kernel singular values of the two pairings at g, as ((smin_left,
        smax_left), (smin_right, smax_right)), with no pairing formed: the
        rows of X^T H and the columns of H B go to :func:`_projected_sigmas`
        with the left and right gradients of phi."""
        Xa, H, phi_jac = self._pairing_parts()
        p = self.p
        left = _projected_sigmas(Xa.T @ H, phi_jac, p.r)
        right = _projected_sigmas((H @ self.basis).T, p.phi_right_jac(self.g), p.r)
        return left, right


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
# tangent spaces of the constraint set and regularity matrices


_OTHER_AXES = ((1, 2), (2, 0), (0, 1))


def _row_complement(M):
    """Orthonormal basis (columns) of the null space of a 1x3 array M, or
    eye(3) when M is zero.

    With v the row divided by its largest magnitude (so v[k] = +-1 at its
    largest entry k) and s = |v|, the Householder reflection
    I - u u^T / (s (s + 1)), u = v + sign(v[k]) s e_k, maps v onto the axis
    e_k; its other two columns span the plane orthogonal to v.
    """
    scale = require_finite(M, "constraint gradient")
    if scale == 0.0:
        return np.eye(3)
    x, y, z = M.tolist()[0]
    v = [x / scale, y / scale, z / scale]
    ax, ay, az = abs(v[0]), abs(v[1]), abs(v[2])
    k = 0 if ax >= ay and ax >= az else (1 if ay >= az else 2)
    i, j = _OTHER_AXES[k]
    vi, vj = v[i], v[j]
    s = math.hypot(*v)
    d = 1.0 / (s * (s + 1.0))
    e = -math.copysign(1.0, v[k]) / s  # -u[k] d
    out = [None, None, None]
    out[k] = [e * vi, e * vj]
    out[i] = [1.0 - vi * vi * d, -vi * vj * d]
    out[j] = [-vj * vi * d, 1.0 - vj * vj * d]
    return np.array(out)


def _nullspace(M, rtol=NULLSPACE_RTOL):
    """Orthonormal basis (columns) of the right null space of the 2-D array M:
    :func:`_row_complement` for a single row of three, else from the SVD."""
    k, n = M.shape
    if k == 0:
        return np.eye(n)
    if k == 1 and n == 3:
        return _row_complement(M)
    s, vh = _svd(M, "constraint gradient")
    cutoff = rtol * (s[0] if s.size else 0.0)
    rank = int(np.count_nonzero(s > cutoff))
    return vh[rank:].T


def regularity_matrices(p, g):
    """The two nondegeneracy pairings of the two-point form
    cross(g, a, b) = -a^T H(g) b at g.

    Returns (G_left, G_right):

    * ``G_left[a, j]  = cross(g, X_a(alpha(g)), W_j)`` with W_j spanning the
      left tangent directions at g; its right kernel must be trivial.
    * ``G_right[i, b] = cross(g, V_i, X_b(beta(g)))`` with V_i spanning the
      right tangent directions; its left kernel must be trivial.

    They are the reference for :meth:`StepFrame.regularity_sigmas`.
    """
    frame = StepFrame(p, g)
    Xa, H, phi_jac = frame._pairing_parts()
    G_left = -Xa.T @ H @ _nullspace(phi_jac)
    G_right = -_nullspace(p.phi_right_jac(g)).T @ H @ frame.basis
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
    along the gradient give (0, 0)).  Other gradients take Q from a LAPACK QR
    of grad^T and the sigmas from :func:`kernel_sigmas`; a diagonal entry of
    R within ``NULLSPACE_RTOL`` of the largest (dependent rows, where Q would
    miss a null direction) is a SingularError.
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
        Q, _, info = lapack.dorgqr(qr, tau)
    if info != 0:
        raise SingularError(f"constraint gradient QR failed (info {info})")
    require_finite(M, "two-point pairing")
    return kernel_sigmas(M - (M @ Q) @ Q.T, rank_needed)


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
    s, _ = _svd(M, "two-point pairing", compute_uv=0)
    smax = float(s[0]) if s.size else 0.0
    if s.size < rank_needed:
        return 0.0, smax
    return float(s[rank_needed - 1]), smax
