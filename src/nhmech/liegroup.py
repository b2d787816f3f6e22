"""Matrix-group kernels used by the groupoid backends.

SO(3) elements are 3x3 orthogonal arrays.  SE(2) elements are stored as
triples ``(theta, x, y)`` with theta wrapped to (-pi, pi]; the homogeneous 3x3
matrix is available through :func:`se2_matrix` for Lagrangians written as
traces.

Conventions:

* so(3) basis ``E_i = hat(e_i)`` with ``hat(w) @ v = w x v``.
* se(2) basis ``e`` (rotation), ``e1``, ``e2`` (translations) satisfying
  ``[e, e1] = e2`` and ``[e, e2] = -e1``.
* ``axial(A) = vee(A - A^T)``, so ``Tr(A @ hat(w)) = -axial(A) . w``.
"""

import numpy as np

from .errors import ChartDomainError

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# scalar helpers


def sinc(s):
    """sin(s)/s with a series fallback near zero."""
    s = float(s)
    if abs(s) < 1e-4:
        s2 = s * s
        return 1.0 - s2 / 6.0 + s2 * s2 / 120.0
    return np.sin(s) / s


def versine_over(s):
    """(1 - cos(s))/s with a series fallback near zero."""
    s = float(s)
    if abs(s) < 1e-4:
        s2 = s * s
        return s / 2.0 - s * s2 / 24.0 + s * s2 * s2 / 720.0
    return (1.0 - np.cos(s)) / s


def rot2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def wrap_angle(theta):
    """Wrap to (-pi, pi]."""
    w = np.remainder(theta + np.pi, 2.0 * np.pi) - np.pi
    if w == -np.pi:
        w = np.pi
    return float(w)


# ---------------------------------------------------------------------------
# so(3) / SO(3)


def so3_hat(w):
    w = np.asarray(w, dtype=float)
    return np.array(
        [
            [0.0, -w[2], w[1]],
            [w[2], 0.0, -w[0]],
            [-w[1], w[0], 0.0],
        ]
    )


def so3_vee(A):
    """Inverse of hat on antisymmetric matrices (reads the lower triangle)."""
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def cross3(a, b):
    """Cross product of two 3-vectors; equal to ``np.cross(a, b)`` bit for bit
    and much cheaper for single vectors."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def axial(A):
    """vee(A - A^T) for an arbitrary 3x3 matrix."""
    return np.array(
        [A[2, 1] - A[1, 2], A[0, 2] - A[2, 0], A[1, 0] - A[0, 1]]
    )


def _trace_minus(A):
    """tr(A) I - A, with each diagonal entry summed from the other two
    diagonal entries of A rather than cancelled out of the trace."""
    out = -A
    out[0, 0] = A[1, 1] + A[2, 2]
    out[1, 1] = A[0, 0] + A[2, 2]
    out[2, 2] = A[0, 0] + A[1, 1]
    return out


def axial_right_mul(M):
    """The matrix whose column j is ``axial(M @ E_j)``: tr(M) I - M^T."""
    return _trace_minus(np.asarray(M, dtype=float).T)


def axial_left_mul(M):
    """The matrix whose column j is ``axial(E_j @ M)``: tr(M) I - M."""
    return _trace_minus(np.asarray(M, dtype=float))


def so3_exp(w):
    """Rodrigues formula, series-stabilized for small angles."""
    w = np.asarray(w, dtype=float)
    th2 = float(w @ w)
    W = so3_hat(w)
    if th2 < 1e-8:
        a = 1.0 - th2 / 6.0 + th2 * th2 / 120.0
        b = 0.5 - th2 / 24.0 + th2 * th2 / 720.0
    else:
        th = np.sqrt(th2)
        a = np.sin(th) / th
        b = (1.0 - np.cos(th)) / th2
    return np.eye(3) + a * W + b * (W @ W)


def so3_axial_angle(R):
    """axial(R) and the rotation angle of R in [0, pi], by atan2; raises
    ChartDomainError within 1e-10 of angle pi, the cut of :func:`so3_log`."""
    ax = axial(R)
    s = 0.5 * np.linalg.norm(ax)
    c = 0.5 * (np.trace(R) - 1.0)
    th = np.arctan2(s, min(max(c, -1.0), 1.0))
    if np.pi - th < 1e-10:
        raise ChartDomainError("so3_log: rotation angle at the cut (pi)")
    return ax, th


def so3_log(R):
    """Principal logarithm of a rotation matrix, returned as a 3-vector.

    Three branches: a series for small angles, atan2 in the midrange, and an
    axis extraction from R + I near angle pi.  Raises ChartDomainError within
    1e-10 of angle pi where the principal branch breaks down.
    """
    R = np.asarray(R, dtype=float)
    ax, th = so3_axial_angle(R)
    if th < 0.5:
        # w = f * axial/2 with f = th/sin(th)
        if th < 1e-4:
            t2 = th * th
            f = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
        else:
            f = th / np.sin(th)
        return 0.5 * f * ax
    if th < np.pi - 1e-4:
        return (0.5 * th / np.sin(th)) * ax
    # Near pi: R + I = 2 [cos^2(th/2) I + sin(th/2)cos(th/2) hat(n) + sin^2(th/2) n n^T];
    # the dominant column of R + I is parallel to n.
    B = R + np.eye(3)
    j = int(np.argmax(np.sum(B * B, axis=0)))
    n = B[:, j]
    n = n / np.linalg.norm(n)
    # axial(R) = 2 sin(th) n fixes the sign while sin(th) > 0.
    if n @ ax < 0.0:
        n = -n
    return th * n


# ---------------------------------------------------------------------------
# se(2) / SE(2)

_J2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def se2_element(theta, x, y):
    return np.array([wrap_angle(theta), float(x), float(y)])


def se2_identity():
    return np.zeros(3)


def se2_matrix(g):
    """Homogeneous 3x3 representative of (theta, x, y)."""
    th, x, y = g
    c, s = np.cos(th), np.sin(th)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def se2_hat(xi):
    """Algebra element (omega, v1, v2) as a 3x3 matrix."""
    om, v1, v2 = xi
    return np.array([[0.0, -om, v1], [om, 0.0, v2], [0.0, 0.0, 0.0]])


def se2_compose(g, h):
    th, x, y = g
    t2 = rot2(th) @ np.asarray(h[1:], dtype=float)
    return se2_element(th + h[0], x + t2[0], y + t2[1])


def se2_invert(g):
    th = g[0]
    t = -(rot2(-th) @ np.asarray(g[1:], dtype=float))
    return se2_element(-th, t[0], t[1])


def se2_exp(xi):
    """Group exponential of (omega, v1, v2)."""
    om, v1, v2 = [float(c) for c in xi]
    a = sinc(om)
    b = versine_over(om)
    return se2_element(om, a * v1 - b * v2, b * v1 + a * v2)


def se2_check_cut(g):
    """Raise ChartDomainError where :func:`se2_log` does: |theta| >= pi - 1e-10."""
    if abs(float(g[0])) >= np.pi - 1e-10:
        raise ChartDomainError("se2_log: rotation angle at the cut (pi)")


def se2_log(g):
    """Principal logarithm; raises ChartDomainError at |theta| = pi."""
    th, x, y = [float(c) for c in g]
    se2_check_cut(g)
    a = sinc(th)
    b = versine_over(th)
    d = a * a + b * b  # = 2(1-cos th)/th^2, positive on the domain
    v1 = (a * x + b * y) / d
    v2 = (-b * x + a * y) / d
    return np.array([th, v1, v2])


def se2_left_jacobian(g):
    """Jacobian of the triple (theta, x, y) along the left chart at g:
    column j is d/dt of g * exp(t e_j) at t=0."""
    c, s = np.cos(g[0]), np.sin(g[0])
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def se2_right_jacobian(g):
    """Jacobian of the triple (theta, x, y) along the right chart at g:
    column j is d/ds of exp(s e_j) * g at s=0."""
    _, x, y = g
    return np.array([[1.0, 0.0, 0.0], [-y, 1.0, 0.0], [x, 0.0, 1.0]])


def se2_Ad(g, xi):
    """Adjoint action on (omega, v): (omega, R(theta) v - omega J t)."""
    th = g[0]
    t = np.asarray(g[1:], dtype=float)
    om = float(xi[0])
    v = np.asarray(xi[1:], dtype=float)
    out = rot2(th) @ v - om * (_J2 @ t)
    return np.array([om, out[0], out[1]])
