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
from .problem import ConstraintSet, Distribution, Lagrangian, MomentumSpec, NhProblem


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


def check_keys(mapping, allowed, where):
    """Reject the keys of a config mapping that are not in ``allowed``."""
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")


_EYE3 = np.eye(3)


def _complement_basis(v):
    """Deterministic orthonormal basis of the plane orthogonal to v in R^3, as
    a C-ordered (3, 2) array.  Each norm is sqrt(x.dot(x)), as numpy computes
    a 1-D norm."""
    v = np.asarray(v, dtype=float)
    vhat = v / math.sqrt(v.dot(v))
    j = abs(vhat).argmin()
    b1 = _EYE3[j] - vhat[j] * vhat
    b1 = b1 / math.sqrt(b1.dot(b1))
    out = np.empty((3, 2))
    out[:, 0] = b1
    out[:, 1] = lg.cross3(vhat, b1)
    return out


def _sym_pd(M, what):
    M = number(M, what, None)
    if M.shape != (3, 3) or not np.allclose(M, M.T, atol=1e-12):
        raise ConfigError(f"{what} must be a symmetric 3x3 matrix")
    if np.any(np.linalg.eigvalsh(M) <= 0):
        raise ConfigError(f"{what} must be positive definite")
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# the three kinetic forms: every built-in Lagrangian is one of them, a sum of
# two on an Atiyah element, or one plus a potential term.  A form is the tuple
# (value, left gradient, right gradient, H), its gradients computed on Python
# floats and returned as lists; _lagrangian makes the arrays


def _lagrangian(lag, lgrad, rgrad, hess):
    """The Lagrangian of a form (value, list-valued gradients, H)."""
    return Lagrangian(eval=lag, left_grad=lambda g: np.array(lgrad(g)),
                      right_grad=lambda g: np.array(rgrad(g)), mixed_hess=hess)


def _pair_form(mass, h, dim):
    """mass |q1 - q0|^2 / (2 h^2) on pairs (q0, q1) in R^dim; H is constant.
    Only g[0] and g[1] are read, so an Atiyah element passes as it is.  An h
    whose h^2 underflows (below the smallest normal float) is a ConfigError,
    raised before a factory builds any other 1/h^2 term."""
    hh = h * h
    if hh < sys.float_info.min:
        raise ConfigError(f"h = {h!r} is too small: h^2 underflows")
    H = mass * np.eye(dim) / hh
    H.flags.writeable = False

    def lag(g):
        d = g[1] - g[0]
        return mass * float(d @ d) / (2.0 * h * h)

    def grad(g):
        return [mass * (b - a) / hh for a, b in zip(g[0].tolist(), g[1].tolist())]

    return lag, grad, grad, lambda g: H


def _finite_start(build):
    """The initial builder ``build`` run with numpy's floating-point warnings
    off; an element with a non-finite entry (a start whose arithmetic
    overflowed) is a ConfigError naming the keys it was built from.  Every
    finite start is the element ``build`` gives."""

    def checked(cfg):
        with np.errstate(all="ignore"):
            g = build(cfg)
        if not all(np.isfinite(part).all() for part in (g if isinstance(g, tuple) else (g,))):
            keys = ", ".join(sorted(cfg))
            raise ConfigError(f"the element built from {keys} is not finite (an overflow)")
        return g

    return checked


def _body_rate_exp(h, w):
    """so3_exp(h w) for a configured body rate w (a list of 3 floats), on the
    floats h w would give; a ConfigError naming omega where h w has a
    non-finite squared norm, on which so3_exp fails."""
    u = [h * x for x in w]
    if not math.isfinite(sum(x * x for x in u)):
        raise ConfigError("omega is too large: h omega has a non-finite squared norm")
    return lg.so3_exp(np.array(u))


def _so3_form(J):
    """The Moser-Veselov trace form -Tr(J W) on rotations W, J symmetric.
    For J = c I (the ball) the products J W and W J are formed as c W, and
    the gradients axial(c W) from the entries of W, which gives the same
    values as the matmuls."""
    c = float(J[0, 0])
    if np.array_equal(J, c * np.eye(3)):
        left = right = lambda W: c * W

        def lgrad(W):
            (_, w01, w02), (w10, _, w12), (w20, w21, _) = W.tolist()
            return [c * w21 - c * w12, c * w02 - c * w20, c * w10 - c * w01]

        rgrad = lgrad
    else:
        left, right = (lambda W: J @ W), (lambda W: W @ J)
        lgrad, rgrad = (lambda W: lg.axial_floats(J @ W)), (lambda W: lg.axial_floats(W @ J))
    return (
        lambda W: -float(np.trace(left(W))),
        lgrad,
        rgrad,
        # column j is axial(W E_j J), and W E_j = hat(W e_j) W for a rotation
        lambda W: lg.axial_left_mul(right(W)) @ W,
    )


def _se2_form(K):
    """The trace form (1/2) Tr((W - I) K (W - I)^T) on SE(2) triples g, with
    W = se2_matrix(g) and K symmetric.

    With pair(M) = (M01 - M10, M20, M21), the components of
    v -> Tr(se2_hat(v) M) in the (omega, v1, v2) basis, the left and right
    gradients are pair(K (W^T W - W)) and pair(W K W^T - W K).  They are
    written out from (c, s) = (cos theta, sin theta), the translation (x, y)
    and the entries of K, with (u, v) = R^T (x, y) the translation in the
    body frame; K01 cancels from both.
    """
    k_trace = float(K[0, 0] + K[1, 1])
    k02, k12, k22 = float(K[0, 2]), float(K[1, 2]), float(K[2, 2])

    def lag(g):
        D = lg.se2_matrix(g) - np.eye(3)
        return 0.5 * float(np.trace(D @ K @ D.T))

    def lgrad(g):
        th, x, y = g.tolist()
        c, s = math.cos(th), math.sin(th)
        u, v = c * x + s * y, c * y - s * x
        return [k_trace * s + (k02 * v - k12 * u),
                k02 * (1.0 - c) - k12 * s + k22 * u,
                k02 * s + k12 * (1.0 - c) + k22 * v]

    def rgrad(g):
        th, x, y = g.tolist()
        c, s = math.cos(th), math.sin(th)
        return [k_trace * s + (k02 * y - k12 * x),
                k02 * (c - 1.0) - k12 * s + k22 * x,
                k02 * s + k12 * (c - 1.0) + k22 * y]

    def hess(g):
        # Column j is pair(S + S^T - P) with P = W E_j K, S = P W^T and
        # E_j = se2_hat(e_j).  Row 2 of W E_j is zero and row 2 of W is e_2,
        # so the column is (P10 - P01, P02, P12); only the rotation part of W
        # enters, and K01 cancels.
        c, s = math.cos(g[0]), math.sin(g[0])
        return np.array([
            [c * k_trace, s * k02 - c * k12, c * k02 + s * k12],
            [-(s * k02 + c * k12), c * k22, -s * k22],
            [c * k02 - s * k12, s * k22, c * k22],
        ])

    return lag, lgrad, rgrad, hess


def _atiyah_form(base, group):
    """base + group on Atiyah elements (p0, p1, G): a pair form on the base
    points plus a form on the 3-dimensional group part, with a block-diagonal
    H and gradients listed base part first."""
    base_hess = base[3](None)  # a pair form's H is constant
    m = base_hess.shape[0]
    n = m + 3
    base_block = np.zeros((n, n))
    base_block[:m, :m] = base_hess

    def hess(el):
        out = base_block.copy()
        out[m:, m:] = group[3](el[2])
        return out

    return _lagrangian(
        lambda el: base[0](el) + group[0](el[2]),
        lambda el: base[1](el) + group[1](el[2]),
        lambda el: base[2](el) + group[2](el[2]),
        hess,
    )


# ---------------------------------------------------------------------------
# nonholonomic particle (pair groupoid)


def make_constrained_particle(h=0.01):
    """Free particle in R^3 with the knife-edge style constraint
    zdot = y xdot, midpoint-discretized on the pair groupoid."""
    h = number(h, "h", positive=True)
    bk = PairGroupoid(3)

    def phi(g):
        (x0, y0, z0), (x1, y1, z1) = g[0].tolist(), g[1].tolist()
        return np.array([(z1 - z0) / h - 0.5 * (y1 + y0) * (x1 - x0) / h])

    def phi_jac(g, side):
        # side -1.0 for the left chart, 1.0 for the right
        (x0, y0, _), (x1, y1, _) = g[0].tolist(), g[1].tolist()
        return np.array([[-(y1 + y0) / (2 * h), side * (x1 - x0) / (2 * h), 1.0 / h]])

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
            xi_map=lambda x: np.array([1.0]),
        ),
    }
    return NhProblem(
        name="constrained_particle",
        backend=bk,
        lagrangian=_lagrangian(*_pair_form(1.0, h, 3)),
        constraints=ConstraintSet(
            codim=1,
            phi=phi,
            left_jac=lambda g: phi_jac(g, -1.0),
            right_jac=lambda g: phi_jac(g, 1.0),
        ),
        distribution=Distribution(basis=basis, annihilator=annihilator),
        params={"h": h},
        declared_reversible=True,
        momentum_specs=specs,
        coord_names=["x0", "y0", "z0", "x1", "y1", "z1"],
        initial_builder=_finite_start(build_initial),
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

    def phi(W):
        (_, w01, _), (w10, _, _), _ = W.tolist()
        return np.array([w10 - w01])

    def phi_jac(rows):
        # row 2 of axial_left_mul: the right chart from the rows of W, the
        # left from those of W^T
        (w00, _, _), (_, w11, _), (w20, w21, _) = rows
        return np.array([[-w20, -w21, w00 + w11]])

    basis_mat = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    ann_mat = np.array([[0.0], [0.0], [1.0]])
    basis_mat.flags.writeable = ann_mat.flags.writeable = False

    def build_initial(cfg):
        check_keys(cfg, {"omega"}, "initial")
        if "omega" not in cfg:
            raise ConfigError("initial needs omega (two components, body axes 1 and 2)")
        w = number(cfg["omega"], "omega", 2)
        return _body_rate_exp(h, [*w.tolist(), 0.0])

    def sample(rng, count):
        return [
            lg.so3_exp(h * np.array([*(rng.normal(size=2) * 0.8 + 0.3), 0.0]))
            for _ in range(count)
        ]

    names = [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return NhProblem(
        name="suslov",
        backend=bk,
        lagrangian=_lagrangian(*_so3_form(JJ / h)),
        constraints=ConstraintSet(
            codim=1,
            phi=phi,
            left_jac=lambda W: phi_jac(zip(*W.tolist())),
            right_jac=lambda W: phi_jac(W.tolist()),
        ),
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"J": JJ, "h": h},
        declared_reversible=True,
        coord_names=names,
        initial_builder=_finite_start(build_initial),
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

    value, lgrad, rgrad, hess = _se2_form(K)
    half_trace = 0.5 * float(np.trace(K))

    def phi(g):
        th, x, y = g.tolist()
        return np.array([x * math.sin(th / 2) - y * math.cos(th / 2)])

    def phi_jac(g, side):
        """The left (side 1.0) or right (side -1.0) chart gradient of phi: the
        gradient (a, sin(th/2), -cos(th/2)) in the triple (theta, x, y), with
        a = (x cos(th/2) + y sin(th/2))/2, times the SE(2) chart Jacobian,
        which simplifies to (side a, -side sin(th/2), -cos(th/2))."""
        th, x, y = g.tolist()
        sh, ch = math.sin(th / 2), math.cos(th / 2)
        return np.array([[side * 0.5 * (x * ch + y * sh), -side * sh, -ch]])

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

    return NhProblem(
        name="chaplygin_sleigh",
        backend=bk,
        lagrangian=_lagrangian(lambda g: value(g) - half_trace, lgrad, rgrad, hess),
        constraints=ConstraintSet(
            codim=1,
            phi=phi,
            left_jac=lambda g: phi_jac(g, 1.0),
            right_jac=lambda g: phi_jac(g, -1.0),
        ),
        distribution=Distribution(
            basis=basis, annihilator=lambda x: np.array([[0.0], [0.0], [1.0]])
        ),
        params={"m": m, "a": a, "b": b, "J": J},
        declared_reversible=True,
        coord_names=["theta", "x", "y"],
        initial_builder=_finite_start(build_initial),
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

    kin_value, kin_lgrad, kin_rgrad, kin_hess = _so3_form(TF / h)
    hm = h * mgl

    def rgrad(el):
        # the right curve moves gamma too, so only this gradient sees the potential
        gam, W = el
        return [a - hm * b for a, b in zip(kin_rgrad(W), lg.cross3(gam, evec).tolist())]

    def phi(el):
        # axial(W) vanishes at a rotation by pi too: refusing that spurious
        # branch keeps Newton off its roots (small rotations are legal motion)
        gam, W = el
        tr = float(W[0, 0] + W[1, 1] + W[2, 2])
        if abs(tr + 1.0) < 1e-6:
            raise SingularError(f"veselova: rotation angle at pi (trace {tr:.6f})")
        return np.array([float(gam @ lg.axial(W))])

    def phi_left(el):
        gam, W = el
        return (gam @ lg.axial_right_mul(W))[None, :]

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
        return (gam, _body_rate_exp(h, w.tolist()))

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
    return NhProblem(
        name="veselova",
        backend=bk,
        lagrangian=_lagrangian(
            lambda el: kin_value(el[1]) - hm * float(el[0] @ evec),
            lambda el: kin_lgrad(el[1]),
            rgrad,
            lambda el: kin_hess(el[1]),
        ),
        constraints=ConstraintSet(codim=1, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(
            basis=_complement_basis, annihilator=lambda x: np.array(x, dtype=float).reshape(3, 1)
        ),
        params={"I": II, "m": m, "g": g, "l": l, "e": evec, "h": h},
        declared_reversible=False,
        coord_names=names,
        initial_builder=_finite_start(build_initial),
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# ball on a rotating table (Atiyah groupoid, group SO(3))


def make_rolling_ball(m=1.0, r=1.0, I=0.4, Omega=1.0, h=0.01):
    """Homogeneous ball rolling without slipping on a table rotating at
    constant rate Omega about the vertical axis."""
    m, r, I = (number(v, what, positive=True) for v, what in ((m, "m"), (r, "r"), (I, "I")))
    Omega, h = number(Omega, "Omega"), number(h, "h", positive=True)
    bk = AtiyahGroupoid(2, "so3")
    rh = r / (2 * h)

    def phi(el):
        (x0, y0), (x1, y1) = el[0].tolist(), el[1].tolist()
        (_, w01, w02), (w10, _, w12), (w20, w21, _) = el[2].tolist()
        return np.array(
            [
                (x1 - x0) / h - rh * (w02 - w20) + 0.5 * Omega * (y1 + y0),
                (y1 - y0) / h + rh * (w21 - w12) - 0.5 * Omega * (x1 + x0),
            ]
        )

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
        p0 = number(cfg["xy0"], "xy0", 2)
        p1 = number(cfg["xy1"], "xy1", 2)
        w3 = number(cfg.get("spin", 0.0), "spin")
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
            p1 = p0 + h * rng.normal(size=2) * 0.5
            out.append(
                build_initial({"xy0": p0, "xy1": p1, "spin": rng.normal() * 0.3})
            )
        return out

    def const_spec(name, coeffs):
        c = np.asarray(coeffs, dtype=float)
        return MomentumSpec(
            name=name,
            section=lambda xi, x, c=c: xi[0] * c,
            xi_map=lambda x: np.array([1.0]),
        )

    specs = {
        "roll_x": const_spec("roll_x", basis_mat[:, 0]),
        "roll_y": const_spec("roll_y", basis_mat[:, 1]),
        "spin": const_spec("spin", basis_mat[:, 2]),
    }
    names = ["x0", "y0", "x1", "y1"] + [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return NhProblem(
        name="rolling_ball",
        backend=bk,
        lagrangian=_atiyah_form(_pair_form(m, h, 2), _so3_form((I / (2 * h * h)) * np.eye(3))),
        constraints=ConstraintSet(
            codim=2,
            phi=phi,
            left_jac=lambda el: phi_jac(0.5 * Omega, zip(*el[2].tolist())),
            right_jac=lambda el: phi_jac(-0.5 * Omega, el[2].tolist()),
        ),
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"m": m, "r": r, "I": I, "Omega": Omega, "h": h},
        declared_reversible=False,
        momentum_specs=specs,
        coord_names=names,
        initial_builder=_finite_start(build_initial),
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
    bk = AtiyahGroupoid(2, "se2")
    dsinc = lambda s: (-s / 3 + s**3 / 30) if abs(s) < 1e-4 else (s * math.cos(s) - math.sin(s)) / s**2
    dvc = lambda s: (0.5 - s * s / 8) if abs(s) < 1e-4 else (s * math.sin(s) - (1 - math.cos(s))) / s**2

    def _sincs(el):
        (phi0, psi0), (phi1, psi1) = el[0].tolist(), el[1].tolist()
        dphi, dpsi = phi1 - phi0, psi1 - psi0
        return dphi, dpsi, R * (dphi - dpsi) / (2 * c)

    def phi(el):
        th, x, y = el[2].tolist()
        dphi, dpsi, s = _sincs(el)
        tot = dphi + dpsi
        return np.array(
            [
                th + s,
                x + 0.5 * R * tot * lg.sinc(s),
                y - 0.5 * R * tot * lg.versine_over(s),
            ]
        )

    def _phi_jac(el, group_jac):
        dphi, dpsi, s = _sincs(el)
        tot = dphi + dpsi
        sc, vc, dsc, dv = lg.sinc(s), lg.versine_over(s), dsinc(s), dvc(s)
        # base columns: both charts shift (dphi, dpsi) by +u, which moves s by
        # +-ds; group columns: phi is (theta, x, y) plus a function of the wheels
        ds = R / (2 * c)
        base = [
            [ds, -ds],
            [0.5 * R * (sc + tot * dsc * ds), 0.5 * R * (sc + tot * dsc * -ds)],
            [-0.5 * R * (vc + tot * dv * ds), -0.5 * R * (vc + tot * dv * -ds)],
        ]
        return np.array([b + j for b, j in zip(base, group_jac(el[2]))])

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
            out.append(
                build_initial(
                    {
                        "wheels0": p0,
                        "dphi": rng.normal() * 0.4,
                        "dpsi": rng.normal() * 0.4,
                    }
                )
            )
        return out

    return NhProblem(
        name="mobile_robot",
        backend=bk,
        lagrangian=_atiyah_form(_pair_form(J1, h, 2), _se2_form(K / (h * h))),
        constraints=ConstraintSet(
            codim=3,
            phi=phi,
            left_jac=lambda el: _phi_jac(el, lg.se2_left_jacobian),
            right_jac=lambda el: _phi_jac(el, lg.se2_right_jacobian),
        ),
        distribution=Distribution(basis=lambda x: basis_mat, annihilator=lambda x: ann_mat),
        params={"m0": m0, "m1": m1, "J": J, "J1": J1, "R": R, "c": c, "l": l, "h": h},
        declared_reversible=True,
        coord_names=["phi0", "psi0", "phi1", "psi1", "theta", "x", "y"],
        initial_builder=_finite_start(build_initial),
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

    def phi(g):
        q1 = g[1]
        return np.array([float(q1 @ q1) - 1.0])

    def phi_left(g):
        return (2.0 * g[1])[None, :]

    zero_row = np.zeros((1, 3))
    zero_row.flags.writeable = False

    def build_initial(cfg):
        check_keys(cfg, {"q0", "q1", "velocity"}, "initial")
        if "q0" not in cfg:
            raise ConfigError("initial needs q0")
        q0 = number(cfg["q0"], "q0", 3)
        n0 = np.linalg.norm(q0)
        if n0 < 1e-12:
            raise ConfigError("q0 must be nonzero")
        q0 = q0 / n0
        if "q1" in cfg:
            q1 = number(cfg["q1"], "q1", 3)
            n1 = np.linalg.norm(q1)
            if n1 < 1e-12:
                raise ConfigError("q1 must be nonzero")
            q1 = q1 / n1
        elif "velocity" in cfg:
            v = number(cfg["velocity"], "velocity", 3)
            v = v - (v @ q0) * q0
            sp = np.linalg.norm(v)
            q1 = q0 if sp < 1e-300 else np.cos(h * sp) * q0 + np.sin(h * sp) * v / sp
        else:
            raise ConfigError("initial needs q1 or velocity")
        return (q0, q1)

    def sample(rng, count):
        out = []
        for _ in range(count):
            q0 = rng.normal(size=3)
            q0 = q0 / np.linalg.norm(q0)
            out.append(build_initial({"q0": q0, "velocity": rng.normal(size=3)}))
        return out

    return NhProblem(
        name="holonomic_sphere",
        backend=bk,
        lagrangian=_lagrangian(*_pair_form(1.0, h, 3)),
        constraints=ConstraintSet(
            codim=1, phi=phi, left_jac=phi_left, right_jac=lambda g: zero_row
        ),
        distribution=Distribution(
            basis=_complement_basis,
            annihilator=lambda x: 2.0 * np.asarray(x, dtype=float).reshape(3, 1),
        ),
        params={"h": h},
        declared_reversible=True,
        coord_names=["x0", "y0", "z0", "x1", "y1", "z1"],
        initial_builder=_finite_start(build_initial),
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
