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

Every kernel takes float arrays and returns one (the SE(2) chart Jacobians
excepted, see below).  The maps a step calls (exp, log, compose, invert, the
chart Jacobians) work on fixed 3-element shapes, where a numpy ufunc on a
scalar costs more than the arithmetic; they read their arguments out once
with ``tolist``, compute in closed form with ``math`` on Python floats and
build their one result array at the end.
"""

import math

import numpy as np

from .errors import ChartDomainError


# ---------------------------------------------------------------------------
# scalar helpers


def sinc(s):
    """sin(s)/s with a series fallback near zero."""
    s = float(s)
    if abs(s) < 1e-4:
        s2 = s * s
        return 1.0 - s2 / 6.0 + s2 * s2 / 120.0
    return math.sin(s) / s


def versine_over(s):
    """(1 - cos(s))/s with a series fallback near zero."""
    s = float(s)
    if abs(s) < 1e-4:
        s2 = s * s
        return s / 2.0 - s * s2 / 24.0 + s * s2 * s2 / 720.0
    return (1.0 - math.cos(s)) / s


def wrap_angle(theta):
    """Wrap to (-pi, pi]; an angle already in that range comes back as it is."""
    theta = float(theta)
    if -math.pi < theta <= math.pi:
        return theta
    w = (theta + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w <= -math.pi else w


# ---------------------------------------------------------------------------
# so(3) / SO(3)


def cross3(a, b):
    """Cross product of two 3-vectors; equal to ``np.cross(a, b)`` bit for bit
    and much cheaper for single vectors."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def axial(A):
    """vee(A - A^T) for an arbitrary 3x3 matrix."""
    (_, a01, a02), (a10, _, a12), (a20, a21, _) = A.tolist()
    return np.array([a21 - a12, a02 - a20, a10 - a01])


def _trace_minus(A):
    """tr(A) I - A, with each diagonal entry summed from the other two
    diagonal entries of A (read once, as floats) rather than cancelled out of
    the trace."""
    a00, a11, a22 = A.diagonal().tolist()
    out = -A
    out[0, 0] = a11 + a22
    out[1, 1] = a00 + a22
    out[2, 2] = a00 + a11
    return out


def axial_right_mul(M):
    """The matrix whose column j is ``axial(M @ E_j)``: tr(M) I - M^T.  It
    comes out column-major; a product with it rounds by that layout, which
    Veselova's ``gamma @ axial_right_mul(W)`` and its path depend on."""
    return _trace_minus(M.T)


def axial_left_mul(M):
    """The matrix whose column j is ``axial(E_j @ M)``: tr(M) I - M."""
    return _trace_minus(M)


def so3_exp(w):
    """Rodrigues formula I + a hat(w) + b hat(w)^2, series-stabilized for
    small angles; hat(w)^2 = w w^T - |w|^2 I is written out."""
    x, y, z = w.tolist()
    th2 = x * x + y * y + z * z
    if th2 < 1e-8:
        a = 1.0 - th2 / 6.0 + th2 * th2 / 120.0
        b = 0.5 - th2 / 24.0 + th2 * th2 / 720.0
    else:
        th = math.sqrt(th2)
        a = math.sin(th) / th
        b = (1.0 - math.cos(th)) / th2
    ax, ay, az = a * x, a * y, a * z
    bxy, bxz, byz = b * (x * y), b * (x * z), b * (y * z)
    return np.array(
        [
            [1.0 - b * (y * y + z * z), bxy - az, bxz + ay],
            [bxy + az, 1.0 - b * (x * x + z * z), byz - ax],
            [bxz - ay, byz + ax, 1.0 - b * (x * x + y * y)],
        ]
    )


def _axial_angle(R):
    """The components of axial(R) and the rotation angle of R (nested lists
    of floats), with the cut check of :func:`so3_check_cut`."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    x, y, z = r21 - r12, r02 - r20, r10 - r01
    s = 0.5 * math.hypot(x, y, z)
    c = 0.5 * (r00 + r11 + r22 - 1.0)
    th = math.atan2(s, min(max(c, -1.0), 1.0))
    if math.pi - th < 1e-10:
        raise ChartDomainError("so3_log: rotation angle at the cut (pi)")
    return x, y, z, th


def so3_check_cut(R):
    """Raise ChartDomainError where :func:`so3_log` does: within 1e-10 of
    rotation angle pi."""
    _axial_angle(R.tolist())


def so3_log(R):
    """Principal logarithm of a rotation matrix, returned as a 3-vector.

    Three branches: a series for small angles, atan2 in the midrange, and an
    axis extraction from R + I near angle pi.  Raises ChartDomainError within
    1e-10 of angle pi where the principal branch breaks down.
    """
    x, y, z, th = _axial_angle(R.tolist())
    if th < math.pi - 1e-4:
        # w = f * axial/2 with f = th/sin(th)
        if th < 1e-4:
            t2 = th * th
            f = 1.0 + t2 / 6.0 + 7.0 * t2 * t2 / 360.0
        else:
            f = th / math.sin(th)
        k = 0.5 * f
        return np.array([k * x, k * y, k * z])
    # Near pi: R + I = 2 [cos^2(th/2) I + sin(th/2)cos(th/2) hat(n) + sin^2(th/2) n n^T];
    # the dominant column of R + I is parallel to n.
    B = R + np.eye(3)
    j = int(np.argmax(np.sum(B * B, axis=0)))
    n = B[:, j]
    n = n / np.linalg.norm(n)
    # axial(R) = 2 sin(th) n fixes the sign while sin(th) > 0.
    if n[0] * x + n[1] * y + n[2] * z < 0.0:
        n = -n
    return th * n


# ---------------------------------------------------------------------------
# se(2) / SE(2)


def se2_identity():
    return np.zeros(3)


def se2_matrix(g):
    """Homogeneous 3x3 representative of (theta, x, y)."""
    th, x, y = g.tolist()
    c, s = math.cos(th), math.sin(th)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def se2_compose(g, h):
    th, x, y = g.tolist()
    dth, u, v = h.tolist()
    c, s = math.cos(th), math.sin(th)
    return np.array([wrap_angle(th + dth), x + (c * u - s * v), y + (s * u + c * v)])


def se2_invert(g):
    th, x, y = g.tolist()
    c, s = math.cos(th), math.sin(th)
    return np.array([wrap_angle(-th), -(c * x + s * y), s * x - c * y])


def se2_exp(xi):
    """Group exponential of (omega, v1, v2)."""
    om, v1, v2 = xi.tolist()
    a = sinc(om)
    b = versine_over(om)
    return np.array([wrap_angle(om), a * v1 - b * v2, b * v1 + a * v2])


def se2_check_cut(g):
    """Raise ChartDomainError where :func:`se2_log` does: |theta| >= pi - 1e-10."""
    if abs(float(g[0])) >= math.pi - 1e-10:
        raise ChartDomainError("se2_log: rotation angle at the cut (pi)")


def se2_log(g):
    """Principal logarithm; raises ChartDomainError at |theta| = pi."""
    se2_check_cut(g)
    th, x, y = g.tolist()
    a = sinc(th)
    b = versine_over(th)
    d = a * a + b * b  # = 2(1-cos th)/th^2, positive on the domain
    return np.array([th, (a * x + b * y) / d, (-b * x + a * y) / d])


def se2_left_jacobian(g):
    """Jacobian of the triple (theta, x, y) along the left chart at g, as its
    rows: column j is d/dt of g * exp(t e_j) at t=0.  The rows are lists of
    floats, not an array, since the robot's constraint gradient extends them
    and an array would cost a conversion per call."""
    th = float(g[0])
    c, s = math.cos(th), math.sin(th)
    return [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]]


def se2_right_jacobian(g):
    """Jacobian of the triple (theta, x, y) along the right chart at g, as its
    rows (lists of floats, as for :func:`se2_left_jacobian`): column j is
    d/ds of exp(s e_j) * g at s=0."""
    _, x, y = g.tolist()
    return [[1.0, 0.0, 0.0], [-y, 1.0, 0.0], [x, 0.0, 1.0]]
