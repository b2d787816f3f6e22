"""Built-in example systems.

Each factory returns a fully wired :class:`~nhmech.problem.NhProblem` with
analytic chart gradients for the Lagrangian (built from three shared kinetic
forms) and the constraint functions,
coordinate names for the CLI's rows (``NhProblem.to_row``), an
initial-condition builder, and a sampler producing random elements exactly on
the constraint set.  Factory parameters and initial values pass through one
strict check (:func:`number`), so a malformed config value is a ConfigError.

Angle-valued wheel coordinates are kept as unwrapped reals; group-part angles
of SE(2) elements live in (-pi, pi].
"""

import math
import sys

import numpy as np

from . import liegroup as lg
from .errors import ConfigError, SingularError
from .groupoid import ActionGroupoid, AtiyahGroupoid, LieGroupGroupoid, PairGroupoid
from .problem import (ConstraintSet, Distribution, Lagrangian, MomentumSpec, NhProblem,
                      candidate_parts)


def number(val, what, shape=(), positive=False):
    """A config value as a float (``shape`` ``()``) or a float array of
    ``shape`` (any shape for None).  A ConfigError naming ``what`` unless
    every entry is a real number (a bool or a string is not), the shape
    matches, every entry is finite and, with ``positive``, positive."""
    shape = (shape,) if isinstance(shape, int) else shape
    items = np.asarray(val, dtype=object)
    if shape is not None and items.shape != shape or not all(
        isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
        for x in items.flat
    ):
        wanted = (
            "numeric" if shape is None else f"a list of {shape[0]} numbers" if shape else "a number"
        )
        raise ConfigError(f"{what} must be {wanted}")
    try:
        v = items.astype(float)
    except OverflowError:
        raise ConfigError(f"{what} must be finite") from None
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{what} must be finite")
    if positive and not np.all(v > 0):
        raise ConfigError(f"{what} must be positive")
    return float(v) if shape == () else v


# the parameter of a constant momentum map, the same read-only array on every call
_UNIT_XI = np.array([1.0])
_UNIT_XI.flags.writeable = False


def check_keys(mapping, allowed, where):
    """Reject the keys of a config mapping that are not in ``allowed``."""
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")


def _complement_basis(v):
    """Deterministic orthonormal basis of the plane orthogonal to v in R^3, as
    a C-ordered (3, 2) array: b1 = e_j - vhat_j vhat normalised, for the
    first j with the smallest |vhat_j|, and vhat x b1.  It is computed on
    Python floats except for the two squared norms, which numpy's ``dot``
    takes, as numpy computes a 1-D norm (a float sum rounds differently).  A
    zero or non-finite v gives NaN throughout, as numpy's 0/0 would."""
    norm, values = math.sqrt(v.dot(v)), v.tolist()
    if not (norm > 0.0 and all(map(math.isfinite, values))):
        return np.full((3, 2), math.nan)
    u0, u1, u2 = vhat = [c / norm for c in values]
    a0, a1, a2 = abs(u0), abs(u1), abs(u2)
    j = 0 if a0 <= a1 and a0 <= a2 else 1 if a1 <= a2 else 2
    b = [(1.0 if i == j else 0.0) - vhat[j] * c for i, c in enumerate(vhat)]
    b_norm = math.sqrt(np.array(b).dot(b))
    b0, b1, b2 = b[0] / b_norm, b[1] / b_norm, b[2] / b_norm
    return np.array([[b0, u1 * b2 - u2 * b1], [b1, u2 * b0 - u0 * b2], [b2, u0 * b1 - u1 * b0]])


def _sym_pd(M, what):
    M = number(M, what, None)
    if M.shape != (3, 3) or not np.allclose(M, M.T, atol=1e-12):
        raise ConfigError(f"{what} must be a symmetric 3x3 matrix")
    if np.any(np.linalg.eigvalsh(M) <= 0):
        raise ConfigError(f"{what} must be positive definite")
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# the three kinetic forms: every built-in Lagrangian is one of them, a sum of
# two on an Atiyah element, or one plus a potential term.  Each gradient and
# each H is written once, as a formula on the floats of its element part.
# Called with the part alone, a left gradient reads the part and makes its
# array in one frame; the right gradient and H of a form take the part and
# the floats a model's read of the candidate took (see
# ``problem.candidate_parts``), and the right gradient returns the list of
# its floats, for the model or an Atiyah form to make one array of


def _pair_form(mass, h, dim):
    """mass |q1 - q0|^2 / (2 h^2) on pairs (q0, q1) in R^dim: returns (value,
    grad, H), H constant and read-only.  Only g[0] and g[1] are read, so an
    Atiyah element passes as it is.

    The gradient is the same in either chart, mass (q1 - q0) / h^2:
    ``grad(g)`` is its array and ``grad(g, (q0, q1))``, given the floats of
    g[0] and g[1], their list.  An h whose h^2 underflows (below the
    smallest normal float) is a ConfigError, raised before a factory builds
    any other 1/h^2 term."""
    hh = h * h
    if hh < sys.float_info.min:
        raise ConfigError(f"h = {h!r} is too small: h^2 underflows")
    H = mass * np.eye(dim) / hh
    H.flags.writeable = False

    def value(g):
        d = g[1] - g[0]
        return mass * float(d @ d) / (2.0 * h * h)

    def grad(g, floats=None):
        q0, q1 = floats or (g[0].tolist(), g[1].tolist())
        vals = [mass * (b - a) / hh for a, b in zip(q0, q1)]
        return vals if floats else np.array(vals)

    return value, grad, H


def _so3_form(J):
    """The Moser-Veselov trace form -Tr(J W) on rotations W, J symmetric:
    returns (value, left, right, hess).

    ``left(W)`` is the left gradient axial(J W) and ``left(W, rows)``, given
    rows = W.tolist(), the list of its floats; ``right(W, rows)`` is the list
    of the floats of the right gradient axial(W J), and ``hess(W, rows)`` is
    H(W) = axial_left_mul(W J) W (column j is axial(W E_j J), and W E_j =
    hat(W e_j) W for a rotation).  For J = c I the products are formed as
    c W, and both gradients are read from the rows of W as c w21 - c w12 and
    so on, which gives the same values as the matmuls."""
    c = float(J[0, 0])
    if np.array_equal(J, c * np.eye(3)):

        def left(W, rows=None):
            (_, w01, w02), (w10, _, w12), (w20, w21, _) = rows or W.tolist()
            vals = [c * w21 - c * w12, c * w02 - c * w20, c * w10 - c * w01]
            return vals if rows else np.array(vals)

        right = left
        value = lambda W: -float(np.trace(c * W))
        hess = lambda W, rows: lg.axial_left_mul(c * W) @ W
    else:

        def left(W, rows=None):
            vals = lg.axial(J @ W)
            return vals.tolist() if rows else vals

        def right(W, rows):
            (_, a01, a02), (a10, _, a12), (a20, a21, _) = (W @ J).tolist()
            return [a21 - a12, a02 - a20, a10 - a01]

        value = lambda W: -float(np.trace(J @ W))
        hess = lambda W, rows: lg.axial_left_mul(W @ J) @ W
    return value, left, right, hess


def _se2_form(K):
    """The trace form (1/2) Tr((W - I) K (W - I)^T) on SE(2) triples g, with
    W = se2_matrix(g) and K symmetric: returns (value, left, right, hess).

    With pair(M) = (M01 - M10, M20, M21), the components of
    v -> Tr(se2_hat(v) M) in the (omega, v1, v2) basis, the left and right
    gradients are pair(K (W^T W - W)) and pair(W K W^T - W K).  They are
    written out from (c, s) = (cos theta, sin theta), the translation (x, y)
    and the entries of K, with (u, v) = R^T (x, y) the translation in the
    body frame; K01 cancels from both.  ``left(g)`` is the left gradient and
    ``left(g, (theta, x, y))`` the list of its floats; ``right(g, (theta, x,
    y))`` is the list of the right gradient's floats and ``hess(g, (theta, x,
    y))`` is H.
    """
    k_trace = float(K[0, 0] + K[1, 1])
    k02, k12, k22 = float(K[0, 2]), float(K[1, 2]), float(K[2, 2])

    def value(g):
        D = lg.se2_matrix(g) - np.eye(3)
        return 0.5 * float(np.trace(D @ K @ D.T))

    def left(g, floats=None):
        th, x, y = floats or g.tolist()
        c, s = math.cos(th), math.sin(th)
        u, v = c * x + s * y, c * y - s * x
        vals = [k_trace * s + (k02 * v - k12 * u),
                k02 * (1.0 - c) - k12 * s + k22 * u,
                k02 * s + k12 * (1.0 - c) + k22 * v]
        return vals if floats else np.array(vals)

    def right(g, floats):
        th, x, y = floats
        c, s = math.cos(th), math.sin(th)
        return [k_trace * s + (k02 * y - k12 * x),
                k02 * (c - 1.0) - k12 * s + k22 * x,
                k02 * s + k12 * (c - 1.0) + k22 * y]

    def hess(g, floats):
        # Column j of H is pair(S + S^T - P) with P = W E_j K, S = P W^T and
        # E_j = se2_hat(e_j).  Row 2 of W E_j is zero and row 2 of W is e_2,
        # so the column is (P10 - P01, P02, P12); only the rotation part of W
        # enters, and K01 cancels.
        c, s = math.cos(floats[0]), math.sin(floats[0])
        return np.array([
            [c * k_trace, s * k02 - c * k12, c * k02 + s * k12],
            [-(s * k02 + c * k12), c * k22, -s * k22],
            [c * k02 - s * k12, s * k22, c * k22],
        ])

    return value, left, right, hess


def _atiyah_form(base, group):
    """base + group on Atiyah elements (p0, p1, G): a pair form (value, grad,
    H) on the base points plus a form (value, left, right, hess) on the
    3-dimensional group part; returns (value, left, read, right, hess).  H
    is block-diagonal, and each gradient is one array of the base part's
    floats followed by the group part's.  ``read(el)`` is ((p0 floats, p1
    floats), G floats), and ``right(el, f)`` and ``hess(el, f)`` take it (or
    a tuple that starts with it) as f."""
    base_value, base_grad, base_hess = base
    group_value, group_left, group_right, group_hess = group
    m = base_hess.shape[0]
    n = m + 3
    base_block = np.zeros((n, n))
    base_block[:m, :m] = base_hess

    def left(el):
        G = el[2]
        return np.array(base_grad(el, (el[0].tolist(), el[1].tolist()))
                        + group_left(G, G.tolist()))

    read = lambda el: ((el[0].tolist(), el[1].tolist()), el[2].tolist())

    def right(el, f):
        return np.array(base_grad(el, f[0]) + group_right(el[2], f[1]))

    def hess(el, f):
        H = base_block.copy()
        H[m:, m:] = group_hess(el[2], f[1])
        return H

    return (lambda el: base_value(el) + group_value(el[2])), left, read, right, hess


def _problem(value, left_grad, parts, codim, right_jac, **fields):
    """An NhProblem whose step path is the joint evaluation of the model's
    four ``problem.candidate_parts``, with the value, the left gradient of L
    and the right gradient of phi, which a step takes at g alone."""
    right_grad, phi, hess, left_jac = parts
    return NhProblem(
        lagrangian=Lagrangian(eval=value, left_grad=left_grad, right_grad=right_grad,
                              mixed_hess=hess),
        constraints=ConstraintSet(codim=codim, phi=phi, left_jac=left_jac, right_jac=right_jac),
        **fields,
    )


# ---------------------------------------------------------------------------
# nonholonomic particle (pair groupoid)


def make_constrained_particle(h=0.01):
    """Free particle in R^3 with the knife-edge style constraint
    zdot = y xdot, midpoint-discretized on the pair groupoid."""
    h = number(h, "h", positive=True)
    bk = PairGroupoid(3)
    value, grad, H = _pair_form(1.0, h, 3)

    read = lambda g: (g[0].tolist(), g[1].tolist())

    def phi(g, floats):
        (x0, y0, z0), (x1, y1, z1) = floats
        return np.array([(z1 - z0) / h - 0.5 * (y1 + y0) * (x1 - x0) / h])

    def phi_jac(floats, side):
        # side -1.0 for the left chart, 1.0 for the right
        (x0, y0, _), (x1, y1, _) = floats
        return np.array([[-(y1 + y0) / (2 * h), side * (x1 - x0) / (2 * h), 1.0 / h]])

    parts = candidate_parts(read, lambda g, f: np.array(grad(g, f)), phi, lambda g, f: H,
                            lambda g, f: phi_jac(f, -1.0))

    def basis(x):
        return np.array([[1.0, 0.0], [0.0, 1.0], [x[1], 0.0]])

    def annihilator(x):
        return np.array([[-x[1]], [0.0], [1.0]])

    def build_initial(cfg):
        check_keys(cfg, {"q0", "q1", "velocity"}, "initial")
        if "q0" not in cfg:
            raise ConfigError("initial needs q0")
        q0 = number(cfg["q0"], "q0", 3)
        if "q1" in cfg:
            q1 = number(cfg["q1"], "q1", 3)
        elif "velocity" in cfg:
            v = number(cfg["velocity"], "velocity", 2)
            vz = (q0[1] + 0.5 * h * v[1]) * v[0]
            q1 = q0 + h * np.array([v[0], v[1], vz])
        else:
            raise ConfigError("initial needs q1 or velocity")
        return (q0, q1)

    def sample(rng, count):
        out = []
        for _ in range(count):
            q0 = rng.normal(size=3)
            x1 = q0[0] + 0.3 * rng.normal()
            y1 = q0[1] + 0.3 * rng.normal()
            z1 = q0[2] + 0.5 * (y1 + q0[1]) * (x1 - q0[0])
            out.append((q0, np.array([x1, y1, z1])))
        return out

    specs = {
        "plane_translations": MomentumSpec(
            name="plane_translations",
            section=lambda xi, x: np.array([xi[0], 0.0, xi[1]]),
            xi_map=lambda x: np.array([1.0, x[1]]),
        ),
        "y_translation": MomentumSpec(
            name="y_translation",
            section=lambda xi, x: np.array([0.0, xi[0], 0.0]),
            xi_map=lambda x: _UNIT_XI,
        ),
    }
    return _problem(
        value, grad, parts, 1, lambda g: phi_jac(read(g), 1.0),
        name="constrained_particle",
        backend=bk,
        distribution=Distribution(basis=basis, annihilator=annihilator),
        params={"h": h},
        declared_reversible=True,
        momentum_specs=specs,
        coord_names=["x0", "y0", "z0", "x1", "y1", "z1"],
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# Suslov rigid body (Lie group SO(3))


def make_suslov(J=None, h=0.05):
    """Rigid body with the body-frame constraint omega_3 = 0.

    J is the symmetric positive definite trace-form matrix of the discrete
    Lagrangian L_d(W) = -(1/h) Tr(J W); the equivalent body inertia tensor is
    Tr(J) I - J.
    """
    h = number(h, "h", positive=True)
    JJ = _sym_pd(np.diag([1.0, 2.0, 3.0]) if J is None else J, "J")
    bk = LieGroupGroupoid("so3")
    value, left, right, hess = _so3_form(JJ / h)

    def phi(W, rows):
        (_, w01, _), (w10, _, _), _ = rows
        return np.array([w10 - w01])

    def phi_jac(rows):
        # row 2 of axial_left_mul: the right chart from the rows of W, the
        # left from those of W^T
        (w00, _, _), (_, w11, _), (w20, w21, _) = rows
        return np.array([[-w20, -w21, w00 + w11]])

    parts = candidate_parts(np.ndarray.tolist, lambda W, rows: np.array(right(W, rows)), phi,
                            hess, lambda W, rows: phi_jac(zip(*rows)))

    basis_mat = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    ann_mat = np.array([[0.0], [0.0], [1.0]])
    basis_mat.flags.writeable = ann_mat.flags.writeable = False

    def build_initial(cfg):
        check_keys(cfg, {"omega"}, "initial")
        if "omega" not in cfg:
            raise ConfigError("initial needs omega (two components, body axes 1 and 2)")
        w = number(cfg["omega"], "omega", 2)
        return lg.so3_exp(h * np.array([*w.tolist(), 0.0]))

    def sample(rng, count):
        return [
            lg.so3_exp(h * np.array([*(rng.normal(size=2) * 0.8 + 0.3), 0.0]))
            for _ in range(count)
        ]

    names = [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return _problem(
        value, left, parts, 1, lambda W: phi_jac(W.tolist()),
        name="suslov",
        backend=bk,
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"J": JJ, "h": h},
        declared_reversible=True,
        coord_names=names,
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# Chaplygin sleigh (Lie group SE(2))


def make_chaplygin_sleigh(m=1.0, a=0.3, b=0.2, J=0.4):
    """Sleigh on the plane: blade at distance (a, b) from the center of mass.

    The discrete Lagrangian has the time step absorbed into the units:
    L_d(W) = (1/2) Tr(W K W^T) - Tr(W K) on homogeneous matrices W, which is
    the SE(2) trace form less (1/2) Tr K.
    """
    m, J = number(m, "m", positive=True), number(J, "J", positive=True)
    a, b = number(a, "a"), number(b, "b")
    K = np.array(
        [
            [J / 2 + m * a * a, m * a * b, m * a],
            [m * a * b, J / 2 + m * b * b, m * b],
            [m * a, m * b, m],
        ]
    )
    bk = LieGroupGroupoid("se2")

    value, left, right, hess = _se2_form(K)
    half_trace = 0.5 * float(np.trace(K))

    def phi_jac(x, y, sh, ch, side):
        """The left (side 1.0) or right (side -1.0) chart gradient of phi, with
        (sh, ch) = (sin(th/2), cos(th/2)): the gradient (a, sh, -ch) in the
        triple (theta, x, y), with a = (x ch + y sh)/2, times the SE(2) chart
        Jacobian, which simplifies to (side a, -side sh, -ch)."""
        return np.array([[side * 0.5 * (x * ch + y * sh), -side * sh, -ch]])

    def read(g):
        # the floats of g, and (x, y, sin(th/2), cos(th/2)) for phi and its gradient
        th, x, y = floats = g.tolist()
        return floats, (x, y, math.sin(th / 2), math.cos(th / 2))

    def phi(g, f):
        x, y, sh, ch = f[1]
        return np.array([x * sh - y * ch])

    parts = candidate_parts(read, lambda g, f: np.array(right(g, f[0])), phi,
                            lambda g, f: hess(g, f[0]), lambda g, f: phi_jac(*f[1], 1.0))

    def basis(x):
        # blade direction and rotation about the contact point
        return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def build_initial(cfg):
        check_keys(cfg, {"xi"}, "initial")
        if "xi" not in cfg:
            raise ConfigError("initial needs xi = [turn rate, forward speed] per step")
        v = number(cfg["xi"], "xi", 2)
        return lg.se2_exp(np.array([v[0], v[1], 0.0]))

    def sample(rng, count):
        return [
            lg.se2_exp(np.array([rng.normal() * 0.25, rng.normal() * 0.3, 0.0]))
            for _ in range(count)
        ]

    return _problem(
        lambda g: value(g) - half_trace, left, parts, 1, lambda g: phi_jac(*read(g)[1], -1.0),
        name="chaplygin_sleigh",
        backend=bk,
        distribution=Distribution(
            basis=basis, annihilator=lambda x: np.array([[0.0], [0.0], [1.0]])
        ),
        params={"m": m, "a": a, "b": b, "J": J},
        declared_reversible=True,
        coord_names=["theta", "x", "y"],
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# Veselova rigid body (action groupoid S^2 x SO(3))


def make_veselova(I=None, m=1.0, g=9.81, l=0.3, e=(0.0, 0.0, 1.0), h=0.05):
    """Rigid body whose angular velocity stays orthogonal to the advected
    vector gamma, with a linear gravity potential along e."""
    h, m = number(h, "h", positive=True), number(m, "m", positive=True)
    g, l = number(g, "g"), number(l, "l")
    II = _sym_pd(np.diag([2.0, 3.0, 4.0]) if I is None else I, "I")
    TF = 0.5 * np.trace(II) * np.eye(3) - II  # trace-form matrix of the kinetic term
    evec = number(e, "e", 3)
    bk = ActionGroupoid()
    mgl = m * g * l

    kin_value, kin_left, kin_right, kin_hess = _so3_form(TF / h)
    hm = h * mgl

    def right(el, rows):
        # the right curve moves gamma too, so only this gradient sees the potential
        gam, W = el
        return np.array(kin_right(W, rows)) - hm * lg.cross3(gam, evec)

    def phi(el, rows):
        # axial(W) vanishes at a rotation by pi too: refusing that spurious
        # branch keeps Newton off its roots (small rotations are legal motion)
        gam, W = el
        tr = rows[0][0] + rows[1][1] + rows[2][2]
        if abs(tr + 1.0) < 1e-6:
            raise SingularError(f"veselova: rotation angle at pi (trace {tr:.6f})")
        return np.array([float(gam @ lg.axial(W))])

    parts = candidate_parts(lambda el: el[1].tolist(), right, phi,
                            lambda el, rows: kin_hess(el[1], rows),
                            lambda el, rows: (el[0] @ lg.axial_right_mul(el[1]))[None, :])

    def phi_right(el):
        # the right curve moves gamma too: d gamma = gamma x v
        gam, W = el
        return (lg.cross3(gam, lg.axial(W)) + gam @ lg.axial_left_mul(W))[None, :]

    def build_initial(cfg):
        check_keys(cfg, {"gamma", "omega"}, "initial")
        if "gamma" not in cfg or "omega" not in cfg:
            raise ConfigError("initial needs gamma and omega")
        gam = number(cfg["gamma"], "gamma", 3)
        nrm = np.linalg.norm(gam)
        if nrm < 1e-12:
            raise ConfigError("gamma must be nonzero")
        if nrm == math.inf:
            raise ConfigError("gamma is too large: its squared norm overflows")
        gam = gam / nrm
        w = number(cfg["omega"], "omega", 3)
        w = w - (w @ gam) * gam
        return (gam, lg.so3_exp(h * w))

    def sample(rng, count):
        out = []
        for _ in range(count):
            gam = rng.normal(size=3)
            gam = gam / np.linalg.norm(gam)
            w = np.zeros(3)
            while np.linalg.norm(w) < 0.1:
                w = rng.normal(size=3)
                w = w - (w @ gam) * gam
            w = w / np.linalg.norm(w)
            out.append((gam, lg.so3_exp(h * w)))
        return out

    names = ["g1", "g2", "g3"] + [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return _problem(
        lambda el: kin_value(el[1]) - hm * float(el[0] @ evec),
        lambda el: kin_left(el[1]), parts, 1, phi_right,
        name="veselova",
        backend=bk,
        distribution=Distribution(
            basis=_complement_basis, annihilator=lambda x: x.reshape(3, 1).copy()
        ),
        params={"I": II, "m": m, "g": g, "l": l, "e": evec, "h": h},
        declared_reversible=False,
        coord_names=names,
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# ball on a rotating table (Atiyah groupoid, group SO(3))


def make_rolling_ball(m=1.0, r=1.0, I=0.4, Omega=1.0, h=0.01):
    """Homogeneous ball rolling without slipping on a table rotating at
    constant rate Omega about the vertical axis."""
    m, r, I = (number(v, what, positive=True) for v, what in ((m, "m"), (r, "r"), (I, "I")))
    Omega, h = number(Omega, "Omega"), number(h, "h", positive=True)
    base = _pair_form(m, h, 2)  # its check of h comes before any 1/h^2 term
    spin = I / (2 * h * h)
    value, left, read, right, hess = _atiyah_form(base, _so3_form(spin * np.eye(3)))
    bk = AtiyahGroupoid(2, "so3")
    rh = r / (2 * h)

    def phi_jac(om, rows):
        # the base block has om = +-Omega/2 off its diagonal; the rotation
        # columns are rows 1 (times -r/2h) and 0 (times r/2h) of
        # axial_left_mul, read from the rows of W for the right chart and of
        # W^T for the left
        (w00, w01, w02), (w10, w11, w12), (_, _, w22) = rows
        return np.array(
            [
                [1.0 / h, om, rh * w10, -rh * (w00 + w22), rh * w12],
                [-om, 1.0 / h, rh * (w11 + w22), -rh * w01, -rh * w02],
            ]
        )

    def phi(el, f):
        ((x0, y0), (x1, y1)), ((_, w01, w02), (w10, _, w12), (w20, w21, _)) = f[0], f[1]
        return np.array([(x1 - x0) / h - rh * (w02 - w20) + 0.5 * Omega * (y1 + y0),
                         (y1 - y0) / h + rh * (w21 - w12) - 0.5 * Omega * (x1 + x0)])

    parts = candidate_parts(read, right, phi, hess,
                            lambda el, f: phi_jac(0.5 * Omega, zip(*f[1])))

    basis_mat = np.array(
        [
            [r, 0.0, 0.0],
            [0.0, r, 0.0],
            [0.0, -1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    ann_mat = np.array(
        [
            [1.0, 0.0],
            [0.0, 1.0],
            [0.0, r],
            [-r, 0.0],
            [0.0, 0.0],
        ]
    )
    basis_mat.flags.writeable = ann_mat.flags.writeable = False

    def build_initial(cfg):
        check_keys(cfg, {"xy0", "xy1", "spin"}, "initial")
        if "xy0" not in cfg or "xy1" not in cfg:
            raise ConfigError("initial needs xy0 and xy1")
        return start(number(cfg["xy0"], "xy0", 2), number(cfg["xy1"], "xy1", 2),
                     number(cfg.get("spin", 0.0), "spin"))

    # the element from checked values; the sampler's draws come here directly
    def start(p0, p1, w3):
        w = np.array(
            [
                (2 * h / r) * (0.5 * Omega * (p1[0] + p0[0]) - (p1[1] - p0[1]) / h),
                (2 * h / r) * ((p1[0] - p0[0]) / h + 0.5 * Omega * (p1[1] + p0[1])),
                w3,
            ]
        )
        nw = np.linalg.norm(w)
        if nw > 2.0 - 1e-12:
            raise ConfigError("xy0 to xy1 is too large a displacement for one step")
        if nw < 1e-300:
            return (p0, p1, np.eye(3))
        th = np.arcsin(nw / 2.0)
        return (p0, p1, lg.so3_exp(th * w / nw))

    def sample(rng, count):
        out = []
        for _ in range(count):
            p0 = rng.normal(size=2)
            out.append(start(p0, p0 + h * rng.normal(size=2) * 0.5, rng.normal() * 0.3))
        return out

    def const_spec(name, c):
        return MomentumSpec(name=name, section=lambda xi, x: xi[0] * c, xi_map=lambda x: _UNIT_XI)

    specs = {
        "roll_x": const_spec("roll_x", basis_mat[:, 0]),
        "roll_y": const_spec("roll_y", basis_mat[:, 1]),
        "spin": const_spec("spin", basis_mat[:, 2]),
    }
    names = ["x0", "y0", "x1", "y1"] + [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return _problem(
        value, left, parts, 2, lambda el: phi_jac(-0.5 * Omega, el[2].tolist()),
        name="rolling_ball",
        backend=bk,
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"m": m, "r": r, "I": I, "Omega": Omega, "h": h},
        declared_reversible=False,
        momentum_specs=specs,
        coord_names=names,
        initial_builder=build_initial,
        sample_states=sample,
    )


def closed_form_ball(params, xy0, xy1, n_steps):
    """Reference trajectory of the contact point: successive differences are
    rotated by a fixed matrix in SO(2).  Returns an (n_steps + 1, 2) array."""
    m = float(params["m"])
    r = float(params["r"])
    I = float(params["I"])
    Omega = float(params["Omega"])
    h = float(params["h"])
    al = I * Omega / (I + m * r * r)
    d = 4.0 + (al * h) ** 2
    A = np.array(
        [
            [4.0 - (al * h) ** 2, -4.0 * al * h],
            [4.0 * al * h, 4.0 - (al * h) ** 2],
        ]
    ) / d
    pts = np.empty((int(n_steps) + 1, 2))
    pts[0] = np.asarray(xy0, dtype=float)
    if n_steps == 0:
        return pts
    pts[1] = np.asarray(xy1, dtype=float)
    u = pts[1] - pts[0]
    for k in range(1, int(n_steps)):
        u = A @ u
        pts[k + 1] = pts[k] + u
    return pts


# ---------------------------------------------------------------------------
# two-wheeled mobile robot (Atiyah groupoid, group SE(2))


def make_mobile_robot(m0=1.0, m1=0.25, J=0.6, J1=0.2, R=0.1, c=0.3, l=0.0, h=0.05):
    """Planar robot driven by two wheels of radius R mounted a distance c from
    the symmetry axis; l is the center-of-mass offset along the axis (the
    symmetric robot has l = 0).  Pure rolling of both wheels.  The frame's
    kinetic energy 1/2 (J w^2 + (m0 + 2 m1) |v|^2 + 2 m0 l w v_2) must be
    positive definite: m0, m1 and J positive and J (m0 + 2 m1) > (m0 l)^2."""
    m0, m1, J = (number(v, what, positive=True) for v, what in ((m0, "m0"), (m1, "m1"), (J, "J")))
    l = number(l, "l")
    J1, R, c, h = (
        number(v, what, positive=True) for v, what in ((J1, "J1"), (R, "R"), (c, "c"), (h, "h"))
    )
    mtot = m0 + 2.0 * m1
    if not J * mtot > (m0 * l) * (m0 * l):
        raise ConfigError("J (m0 + 2 m1) must exceed (m0 l)^2 (positive definite kinetic energy)")
    K = np.array(
        [
            [J / 2, 0.0, m0 * l],
            [0.0, J / 2, 0.0],
            [m0 * l, 0.0, mtot],
        ]
    )
    base = _pair_form(J1, h, 2)  # its check of h comes before any 1/h^2 term
    K = K / (h * h)
    value, left, form_read, right, hess = _atiyah_form(base, _se2_form(K))
    bk = AtiyahGroupoid(2, "se2")
    dsinc = lambda s: (-s / 3 + s**3 / 30) if abs(s) < 1e-4 else (s * math.cos(s) - math.sin(s)) / s**2
    dvc = lambda s: (0.5 - s * s / 8) if abs(s) < 1e-4 else (s * math.sin(s) - (1 - math.cos(s))) / s**2

    def _sincs(q0, q1):
        # (dphi, dpsi, s, sinc(s), versine_over(s)) from the wheel angles' floats
        (phi0, psi0), (phi1, psi1) = q0, q1
        dphi, dpsi = phi1 - phi0, psi1 - psi0
        s = R * (dphi - dpsi) / (2 * c)
        return dphi, dpsi, s, lg.sinc(s), lg.versine_over(s)

    def _phi_jac(sincs, group_jac):
        dphi, dpsi, s, sc, vc = sincs
        tot = dphi + dpsi
        dsc, dv = dsinc(s), dvc(s)
        # base columns: both charts shift (dphi, dpsi) by +u, which moves s by
        # +-ds; group columns: phi is (theta, x, y) plus a function of the wheels
        ds = R / (2 * c)
        base = [
            [ds, -ds],
            [0.5 * R * (sc + tot * dsc * ds), 0.5 * R * (sc + tot * dsc * -ds)],
            [-0.5 * R * (vc + tot * dv * ds), -0.5 * R * (vc + tot * dv * -ds)],
        ]
        return np.array([b + j for b, j in zip(base, group_jac)])

    def read(el):
        f = form_read(el)
        return (*f, _sincs(*f[0]))

    def phi(el, f):
        (th, x, y), (dphi, dpsi, s, sc, vc) = f[1], f[2]
        tot = dphi + dpsi
        return np.array([th + s, x + 0.5 * R * tot * sc, y - 0.5 * R * tot * vc])

    parts = candidate_parts(read, right, phi, hess,
                            lambda el, f: _phi_jac(f[2], lg.se2_left_jacobian(el[2])))

    def right_jac(el):
        return _phi_jac(_sincs(el[0].tolist(), el[1].tolist()), lg.se2_right_jacobian(el[2]))

    basis_mat = np.array(
        [
            [-1.0, 0.0],
            [0.0, -1.0],
            [R / (2 * c), -R / (2 * c)],
            [R / 2, R / 2],
            [0.0, 0.0],
        ]
    )
    ann_mat = np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, 2 * c / R, 0.0],
            [2.0 / R, 0.0, 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    basis_mat.flags.writeable = ann_mat.flags.writeable = False

    def build_initial(cfg):
        check_keys(cfg, {"wheels0", "wheels1", "dphi", "dpsi"}, "initial")
        if "wheels0" not in cfg:
            raise ConfigError("initial needs wheels0")
        p0 = number(cfg["wheels0"], "wheels0", 2)
        if "wheels1" in cfg:
            p1 = number(cfg["wheels1"], "wheels1", 2)
        elif "dphi" in cfg and "dpsi" in cfg:
            p1 = p0 + np.array([number(cfg["dphi"], "dphi"), number(cfg["dpsi"], "dpsi")])
        else:
            raise ConfigError("initial needs wheels1 or dphi/dpsi")
        return start(p0, p1)

    # the element from checked values; the sampler's draws come here directly
    def start(p0, p1):
        dphi, dpsi = p1 - p0
        s = R * (dphi - dpsi) / (2 * c)
        if abs(s) >= np.pi:
            raise ConfigError("wheels0 to wheels1 (dphi/dpsi) turns the frame past the chart cut")
        tot = dphi + dpsi
        g = np.array(
            [
                lg.wrap_angle(-s),
                -0.5 * R * tot * lg.sinc(s),
                0.5 * R * tot * lg.versine_over(s),
            ]
        )
        return (p0, p1, g)

    def sample(rng, count):
        out = []
        for _ in range(count):
            p0 = rng.normal(size=2)
            out.append(start(p0, p0 + np.array([rng.normal() * 0.4, rng.normal() * 0.4])))
        return out

    return _problem(
        value, left, parts, 3, right_jac,
        name="mobile_robot",
        backend=bk,
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"m0": m0, "m1": m1, "J": J, "J1": J1, "R": R, "c": c, "l": l, "h": h},
        declared_reversible=True,
        coord_names=["phi0", "psi0", "phi1", "psi1", "theta", "x", "y"],
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# holonomic benchmark: particle on the sphere


def make_holonomic_sphere(h=0.01):
    """Free particle constrained to the unit sphere, as a holonomic instance:
    the constraint set pins the arriving point to the sphere and the
    distribution is the full sphere tangent at the matching point.  The
    multiplier is reported against the outer differential of the constraint
    (annihilator column 2x), matching the usual SHAKE normalization."""
    h = number(h, "h", positive=True)
    bk = PairGroupoid(3)
    value, grad, H = _pair_form(1.0, h, 3)

    # the formulas read g[1] alone, as an array
    parts = candidate_parts(lambda g: g[1], lambda g, q1: grad(g),
                            lambda g, q1: np.array([float(q1 @ q1) - 1.0]), lambda g, q1: H,
                            lambda g, q1: (2.0 * q1)[None, :])

    zero_row = np.zeros((1, 3))
    zero_row.flags.writeable = False

    def unit(q, key):
        n = np.linalg.norm(q)
        if n < 1e-12:
            raise ConfigError(f"{key} must be nonzero")
        if n == math.inf:
            raise ConfigError(f"{key} is too large: its squared norm overflows")
        return q / n

    def build_initial(cfg):
        check_keys(cfg, {"q0", "q1", "velocity"}, "initial")
        if "q0" not in cfg:
            raise ConfigError("initial needs q0")
        q0 = unit(number(cfg["q0"], "q0", 3), "q0")
        if "q1" in cfg:
            return (q0, unit(number(cfg["q1"], "q1", 3), "q1"))
        if "velocity" in cfg:
            return start(q0, number(cfg["velocity"], "velocity", 3))
        raise ConfigError("initial needs q1 or velocity")

    # the element from checked values; the sampler's draws come here directly
    def start(q0, v):
        v = v - (v @ q0) * q0
        sp = np.linalg.norm(v)
        return (q0, q0 if sp < 1e-300 else np.cos(h * sp) * q0 + np.sin(h * sp) * v / sp)

    def sample(rng, count):
        out = []
        for _ in range(count):
            q0 = rng.normal(size=3)
            q0 = q0 / np.linalg.norm(q0)
            out.append(start(unit(q0, "q0"), rng.normal(size=3)))
        return out

    return _problem(
        value, grad, parts, 1, lambda g: zero_row,
        name="holonomic_sphere",
        backend=bk,
        distribution=Distribution(
            basis=_complement_basis,
            annihilator=lambda x: 2.0 * x.reshape(3, 1),
        ),
        params={"h": h},
        declared_reversible=True,
        coord_names=["x0", "y0", "z0", "x1", "y1", "z1"],
        initial_builder=build_initial,
        sample_states=sample,
    )


FACTORIES = {
    "constrained_particle": make_constrained_particle,
    "suslov": make_suslov,
    "chaplygin_sleigh": make_chaplygin_sleigh,
    "veselova": make_veselova,
    "rolling_ball": make_rolling_ball,
    "mobile_robot": make_mobile_robot,
    "holonomic_sphere": make_holonomic_sphere,
}
