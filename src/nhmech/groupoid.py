"""Groupoid backends and the left/right invariant derivative engine.

A backend bundles the structure maps of one groupoid: ``source``, ``target``,
``compose``, ``invert``, ``identity`` (the unit over a base point), plus a
fiber chart around any element: ``retract(c, u)`` moves along the
source-fiber through ``c`` by chart coordinates ``u`` (an ``(fiber_dim,)``
array), and ``coords(c, g)`` inverts it for ``g`` on the same fiber.
``mirror(g)``, the solver's first guess, repeats g's displacement: it is
``retract(identity(target g), coords(identity(source g), g))`` in closed
form, and raises ChartDomainError where that round trip would.

Elements are plain values (tuples of float arrays, rotation matrices, SE(2)
triples); treat them as immutable.  Every map takes and returns float
arrays (elements, base points, chart coordinates) and coerces nothing; only
``identity`` and the difference directions below take outside input as
array-likes.  The backends are the pair groupoid, a Lie group over one
point, the action groupoid (a base point plus an SO(3)-backend element) and
the Atiyah groupoid (a pair-backend part plus a Lie-group part).

On top of the charts the module provides central-difference directional
derivatives of scalar or vector functions along left/right invariant vector
fields:

* ``left_deriv(bk, f, g, v)``  = d/dt f(retract(g, t v))            at t=0
* ``right_deriv(bk, f, g, v)`` = d/ds f(invert(retract(e_x, -s v)) * g) at s=0
  with e_x the unit over source(g)

their column stacks over the chart basis e_j, through which every chart
derivative without a closed form is differenced (gradients of L, Jacobians of
phi and of the residual, the anchor)

* ``left_jacobian(bk, F, g)[..., j]``  = left_deriv(bk, F, g, e_j)
* ``right_jacobian(bk, F, g)[..., j]`` = right_deriv(bk, F, g, e_j)

and the mixed two-point form

* ``cross_form(bk, f, g, a, b)`` = -d/ds [ left_deriv(f, r(s), b) ] along the
  right curve r(s) through g in direction a.

Left and right translations commute, so the two-point form is also
``-a . H(g) b`` with ``H = left_jacobian`` of the right gradient of f: the
mixed second derivative the solver uses for its Newton matrix and both
regularity pairings (see ``problem.NhProblem.mixed_hess``).  ``cross_form``
stays as an independent nested-difference reference for it.

The sign conventions are fixed so that on a Lie group
``right_deriv(f, g, v) = d/ds f(exp(s v) g)`` and on a pair groupoid
``left_deriv = +D2 f . v``, ``right_deriv = -D1 f . v``.
"""

import numpy as np

from . import liegroup as lg
from .errors import NotComposableError

_EPS = np.finfo(float).eps
FD_STEP = _EPS ** (1.0 / 3.0)  # ~6.1e-6, central differences
FD_STEP_OUTER = np.sqrt(FD_STEP)  # nested differencing, outer loop

COMPOSE_TOL = 1e-9

_POINT = np.zeros(0)  # the one base point of a Lie group


def _base_mismatch(x, y):
    return float(np.max(np.abs(x - y))) if x.size else 0.0


class PairGroupoid:
    """Pair groupoid over Q = R^m; elements are tuples (q0, q1)."""

    def __init__(self, dim):
        self.base_dim = int(dim)
        self.fiber_dim = int(dim)

    def source(self, g):
        return g[0]

    def target(self, g):
        return g[1]

    def compose(self, g, h):
        if _base_mismatch(g[1], h[0]) > COMPOSE_TOL:
            raise NotComposableError("pair elements do not match: target(g) != source(h)")
        return (g[0], h[1])

    def invert(self, g):
        return (g[1], g[0])

    def identity(self, x):
        x = np.asarray(x, dtype=float)
        return (x, x.copy())

    def retract(self, c, u):
        return (c[0], c[1] + u)

    def coords(self, c, g):
        if _base_mismatch(c[0], g[0]) > COMPOSE_TOL:
            raise NotComposableError("coords: elements lie on different source fibers")
        return g[1] - c[1]

    def mirror(self, g):
        return (g[1], g[1] + (g[1] - g[0]))


class LieGroupGroupoid:
    """A Lie group as a groupoid over a single point.

    ``group`` is "so3" (elements: 3x3 rotation matrices) or "se2"
    (elements: (theta, x, y) triples).
    """

    def __init__(self, group="so3"):
        if group not in _GROUPS:
            raise ValueError("group must be 'so3' or 'se2'")
        self.base_dim = 0
        self.fiber_dim = 3
        self._mul, self._inv, self._exp, self._log, self._id, self._check_cut = _GROUPS[group]

    def source(self, g):
        return _POINT

    def target(self, g):
        return _POINT

    def compose(self, g, h):
        return self._mul(g, h)

    def invert(self, g):
        return self._inv(g)

    def identity(self, x=None):
        return self._id()

    def retract(self, c, u):
        return self._mul(c, self._exp(u))

    def coords(self, c, g):
        return self._log(self._mul(self._inv(c), g))

    def mirror(self, g):
        self._check_cut(g)
        return g


# (multiply, invert, exp, log, identity, cut check) of each Lie group; the
# cut check raises where log does.  The kernels are looked up in ``liegroup``
# at call time, so a replacement made there after import is seen.
_GROUPS = {
    "so3": (
        lambda a, b: a @ b,
        lambda a: a.T,
        lambda u: lg.so3_exp(u),
        lambda a: lg.so3_log(a),
        lambda: np.eye(3),
        lambda a: lg.so3_check_cut(a),
    ),
    "se2": (
        lambda a, b: lg.se2_compose(a, b),
        lambda a: lg.se2_invert(a),
        lambda u: lg.se2_exp(u),
        lambda a: lg.se2_log(a),
        lambda: lg.se2_identity(),
        lambda a: lg.se2_check_cut(a),
    ),
}


class ActionGroupoid:
    """Transformation groupoid M x G for a right action of SO(3) on M c R^3.

    Elements are tuples (x, R) with source x and target x . R = R^T x
    (rotations acting on the sphere); R belongs to the SO(3) backend ``group_ops``.
    """

    def __init__(self):
        self.group_ops = LieGroupGroupoid("so3")
        self.base_dim = 3
        self.fiber_dim = 3

    def source(self, g):
        return g[0]

    def target(self, g):
        return g[1].T @ g[0]

    def compose(self, g, h):
        if _base_mismatch(self.target(g), h[0]) > COMPOSE_TOL:
            raise NotComposableError("action elements do not match: target(g) != source(h)")
        return (g[0], self.group_ops.compose(g[1], h[1]))

    def invert(self, g):
        return (self.target(g), self.group_ops.invert(g[1]))

    def identity(self, x):
        return (np.asarray(x, dtype=float).copy(), self.group_ops.identity())

    def retract(self, c, u):
        return (c[0], self.group_ops.retract(c[1], u))

    def coords(self, c, g):
        if _base_mismatch(c[0], g[0]) > COMPOSE_TOL:
            raise NotComposableError("coords: elements lie on different source fibers")
        return self.group_ops.coords(c[1], g[1])

    def mirror(self, g):
        return (self.target(g), self.group_ops.mirror(g[1]))


class AtiyahGroupoid:
    """Trivialized Atiyah groupoid (U x U) x G over U = R^m.

    Elements are tuples (p0, p1, G): each map is the result of the pair
    backend ``pair`` (which reads only p0, p1) followed by that of the
    Lie-group backend ``group_ops`` on G ("so3" or "se2", one global
    trivialization per run).
    """

    def __init__(self, base_dim, group="so3"):
        self.pair = PairGroupoid(base_dim)
        self.group_ops = LieGroupGroupoid(group)
        self.base_dim = self.pair.base_dim
        self.fiber_dim = self.base_dim + self.group_ops.fiber_dim

    def source(self, g):
        return g[0]

    def target(self, g):
        return g[1]

    def compose(self, g, h):
        return (*self.pair.compose(g, h), self.group_ops.compose(g[2], h[2]))

    def invert(self, g):
        return (*self.pair.invert(g), self.group_ops.invert(g[2]))

    def identity(self, x):
        return (*self.pair.identity(x), self.group_ops.identity())

    def retract(self, c, u):
        m = self.base_dim
        return (*self.pair.retract(c, u[:m]), self.group_ops.retract(c[2], u[m:]))

    def coords(self, c, g):
        return np.concatenate((self.pair.coords(c, g), self.group_ops.coords(c[2], g[2])))

    def mirror(self, g):
        return (*self.pair.mirror(g), self.group_ops.mirror(g[2]))


# ---------------------------------------------------------------------------
# directional derivatives


def right_curve(bk, g, s, v):
    e_x = bk.identity(bk.source(g))
    return bk.compose(bk.invert(bk.retract(e_x, -s * v)), g)


def _directional(f, curve, scale, step):
    """Central difference of f along curve(t), with |direction| = scale."""
    if scale == 0.0:
        return 0.0
    t = step / scale
    return (f(curve(t)) - f(curve(-t))) / (2.0 * t)


def left_deriv(bk, f, g, v, step=FD_STEP):
    """Central difference of f along the left curve through g in direction v.

    ``f`` may be scalar or vector valued; the result has the shape of f."""
    v = np.asarray(v, dtype=float)
    scale = float(np.linalg.norm(v))
    return _directional(f, lambda t: bk.retract(g, t * v), scale, step)


def right_deriv(bk, f, g, v):
    """Central difference of f along the right curve through g in direction v
    (scalar or vector valued f, as for :func:`left_deriv`)."""
    v = np.asarray(v, dtype=float)
    scale = float(np.linalg.norm(v))
    return _directional(f, lambda t: right_curve(bk, g, t, v), scale, FD_STEP)


def left_jacobian(bk, fn, g, step=FD_STEP):
    """Jacobian of ``fn`` along the left chart directions at g: column j is
    ``left_deriv(bk, fn, g, e_j)``.  A scalar fn gives its (n,) gradient, a
    vector fn of length m an (m, n) matrix."""
    return np.array([left_deriv(bk, fn, g, e, step) for e in np.eye(bk.fiber_dim)]).T


def right_jacobian(bk, fn, g):
    """Jacobian of ``fn`` along the right chart directions at g: column j is
    ``right_deriv(bk, fn, g, e_j)`` (shapes as for :func:`left_jacobian`)."""
    return np.array([right_deriv(bk, fn, g, e) for e in np.eye(bk.fiber_dim)]).T


def cross_form(bk, f, g, a, b, left_rule=None):
    """Two-point bilinear form G^f_g(a, b) = -d/ds left_deriv(f, ., b) along
    the right curve through g in direction a.

    ``left_rule(h) -> (fiber_dim,)`` may supply the exact gradient of f in the
    left chart at h; the outer difference then runs at the standard step, and
    at a wider step when the inner derivative is itself a difference quotient.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if left_rule is not None:
        inner = lambda h: float(left_rule(h) @ b)
        outer_step = FD_STEP
    else:
        inner = lambda h: left_deriv(bk, f, h, b)
        outer_step = FD_STEP_OUTER
    scale = float(np.linalg.norm(a))
    return -_directional(inner, lambda s: right_curve(bk, g, s, a), scale, outer_step)


def anchor_matrix(bk, x):
    """Matrix of the anchor at base point x: columns are the base velocities
    of the chart directions e_i (d/dt target(retract(identity(x), t e_i)))."""
    return left_jacobian(bk, bk.target, bk.identity(x))
