"""Built-in example systems.

Each factory returns a fully wired :class:`~nhmech.problem.NhProblem` with
analytic chart gradients for the Lagrangian (built from three shared kinetic
forms) and the constraint functions,
coordinate names for the CLI's rows (``NhProblem.to_row``), an
initial-condition builder, and a sampler producing random elements exactly on
the constraint set.  Factory parameters and initial values pass through one
finite-number check, so a malformed config value is a ConfigError.

Angle-valued wheel coordinates are kept as unwrapped reals; group-part angles
of SE(2) elements live in (-pi, pi].
"""

import dataclasses

import numpy as np

from . import liegroup as lg
from .errors import ConfigError, SingularError
from .groupoid import ActionGroupoid, AtiyahGroupoid, LieGroupGroupoid, PairGroupoid
from .problem import ConstraintSet, Distribution, Lagrangian, NhProblem
from .diagnostics import MomentumSpec


def _finite(val, what, shape=()):
    """``val`` as a finite float array of ``shape`` (any shape for None); a
    ConfigError naming ``what`` when it is not numeric, has the wrong size or
    is not finite."""
    try:
        v = np.asarray(val, dtype=float)
        if shape is not None:
            v = v.reshape(shape)
    except (TypeError, ValueError):
        wanted = "a number" if shape == () else f"a list of {shape} numbers" if shape else "numeric"
        raise ConfigError(f"{what} must be {wanted}") from None
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{what} must be finite")
    return v


def _numbers(**values):
    """Each keyword value as a finite float, in order (see :func:`_finite`)."""
    return [float(_finite(val, what)) for what, val in values.items()]


def check_keys(mapping, allowed, where):
    """Reject the keys of a config mapping that are not in ``allowed``."""
    extra = sorted(set(mapping) - set(allowed))
    if extra:
        raise ConfigError(f"unknown {where} key(s): {', '.join(extra)}")


def _complement_basis(v):
    """Deterministic orthonormal basis of the plane orthogonal to v in R^3."""
    v = np.asarray(v, dtype=float)
    vhat = v / np.linalg.norm(v)
    j = int(np.argmin(np.abs(vhat)))
    b1 = np.eye(3)[j] - vhat[j] * vhat
    b1 = b1 / np.linalg.norm(b1)
    b2 = lg.cross3(vhat, b1)
    return np.column_stack([b1, b2])


def _sym_pd(M, what):
    M = _finite(M, what, None)
    if M.shape != (3, 3) or not np.allclose(M, M.T, atol=1e-12):
        raise ConfigError(f"{what} must be a symmetric 3x3 matrix")
    if np.any(np.linalg.eigvalsh(M) <= 0):
        raise ConfigError(f"{what} must be positive definite")
    return 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# the three kinetic forms: every built-in Lagrangian is one of them, a sum of
# two on an Atiyah element, or one plus a potential term


def _pair_form(mass, h, dim):
    """mass |q1 - q0|^2 / (2 h^2) on pairs (q0, q1) in R^dim; H is constant.
    Only g[0] and g[1] are read, so an Atiyah element passes as it is."""
    H = mass * np.eye(dim) / (h * h)
    H.flags.writeable = False

    def lag(g):
        d = g[1] - g[0]
        return mass * float(d @ d) / (2.0 * h * h)

    def grad(g):
        return mass * (g[1] - g[0]) / (h * h)

    return Lagrangian(eval=lag, left_grad=grad, right_grad=grad, mixed_hess=lambda g: H)


def _so3_form(J):
    """The Moser-Veselov trace form -Tr(J W) on rotations W, J symmetric."""
    return Lagrangian(
        eval=lambda W: -float(np.trace(J @ W)),
        left_grad=lambda W: lg.axial(J @ W),
        right_grad=lambda W: lg.axial(W @ J),
        # column j is axial(W E_j J), and W E_j = hat(W e_j) W for a rotation
        mixed_hess=lambda W: lg.axial_left_mul(W @ J) @ W,
    )


_SE2_BASIS = [lg.se2_hat(e) for e in np.eye(3)]


def _se2_pair(M):
    """Components of v -> Tr(se2_hat(v) @ M) in the (omega, v1, v2) basis."""
    return np.array([M[0, 1] - M[1, 0], M[2, 0], M[2, 1]])


def _se2_form(K):
    """The trace form (1/2) Tr((W - I) K (W - I)^T) on SE(2) triples g, with
    W = se2_matrix(g) and K symmetric."""

    def lag(g):
        D = lg.se2_matrix(g) - np.eye(3)
        return 0.5 * float(np.trace(D @ K @ D.T))

    def lgrad(g):
        W = lg.se2_matrix(g)
        return _se2_pair(K @ (W.T @ W - W))

    def rgrad(g):
        W = lg.se2_matrix(g)
        return _se2_pair(W @ K @ W.T - W @ K)

    def hess(g):
        W = lg.se2_matrix(g)
        WK = W @ K
        cols = []
        for E in _SE2_BASIS:
            WE = W @ E
            cols.append(_se2_pair(WE @ K @ W.T + WK @ WE.T - WE @ K))
        return np.column_stack(cols)

    return Lagrangian(eval=lag, left_grad=lgrad, right_grad=rgrad, mixed_hess=hess)


def _atiyah_form(base, group):
    """base + group on Atiyah elements (p0, p1, G): a pair form on the base
    points plus a form on the 3-dimensional group part, with a block-diagonal H."""
    base_hess = base.mixed_hess(None)  # a pair form's H is constant
    m = base_hess.shape[0]
    n = m + 3
    base_block = np.zeros((n, n))
    base_block[:m, :m] = base_hess

    def stack(base_grad, group_grad):
        def grad(el):
            out = np.empty(n)
            out[:m] = base_grad(el)
            out[m:] = group_grad(el[2])
            return out

        return grad

    def hess(el):
        out = base_block.copy()
        out[m:, m:] = group.mixed_hess(el[2])
        return out

    return Lagrangian(
        eval=lambda el: base.eval(el) + group.eval(el[2]),
        left_grad=stack(base.left_grad, group.left_grad),
        right_grad=stack(base.right_grad, group.right_grad),
        mixed_hess=hess,
    )


# ---------------------------------------------------------------------------
# nonholonomic particle (pair groupoid)


def make_constrained_particle(h=0.01):
    """Free particle in R^3 with the knife-edge style constraint
    zdot = y xdot, midpoint-discretized on the pair groupoid."""
    (h,) = _numbers(h=h)
    if h <= 0:
        raise ConfigError("h must be positive")
    bk = PairGroupoid(3)

    def phi(g):
        q0, q1 = g
        return np.array(
            [(q1[2] - q0[2]) / h - 0.5 * (q1[1] + q0[1]) * (q1[0] - q0[0]) / h]
        )

    def phi_left(g):
        q0, q1 = g
        return np.array([[-(q1[1] + q0[1]) / (2 * h), -(q1[0] - q0[0]) / (2 * h), 1.0 / h]])

    def phi_right(g):
        q0, q1 = g
        return np.array([[-(q1[1] + q0[1]) / (2 * h), (q1[0] - q0[0]) / (2 * h), 1.0 / h]])

    def basis(x):
        return np.array([[1.0, 0.0], [0.0, 1.0], [x[1], 0.0]])

    def annihilator(x):
        return np.array([[-x[1]], [0.0], [1.0]])

    def build_initial(cfg):
        check_keys(cfg, {"q0", "q1", "velocity"}, "initial")
        if "q0" not in cfg:
            raise ConfigError("initial needs q0")
        q0 = _finite(cfg["q0"], "q0", 3)
        if "q1" in cfg:
            q1 = _finite(cfg["q1"], "q1", 3)
        elif "velocity" in cfg:
            v = _finite(cfg["velocity"], "velocity", 2)
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
            dim=2,
            section=lambda xi, x: np.array([xi[0], 0.0, xi[1]]),
            xi_map=lambda x: np.array([1.0, x[1]]),
        ),
        "y_translation": MomentumSpec(
            name="y_translation",
            dim=1,
            section=lambda xi, x: np.array([0.0, xi[0], 0.0]),
            xi_map=lambda x: np.array([1.0]),
        ),
    }
    return NhProblem(
        name="constrained_particle",
        backend=bk,
        lagrangian=_pair_form(1.0, h, 3),
        constraints=ConstraintSet(codim=1, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(rank=2, basis=basis, annihilator=annihilator),
        h=h,
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
    (h,) = _numbers(h=h)
    if h <= 0:
        raise ConfigError("h must be positive")
    JJ = _sym_pd(np.diag([1.0, 2.0, 3.0]) if J is None else J, "J")
    bk = LieGroupGroupoid("so3")

    def phi(W):
        return np.array([lg.axial(W)[2]])

    def phi_left(W):
        return lg.axial_right_mul(W)[2:]

    def phi_right(W):
        return lg.axial_left_mul(W)[2:]

    basis_mat = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    ann_mat = np.array([[0.0], [0.0], [1.0]])

    def build_initial(cfg):
        check_keys(cfg, {"omega"}, "initial")
        if "omega" not in cfg:
            raise ConfigError("initial needs omega (two components, body axes 1 and 2)")
        w = _finite(cfg["omega"], "omega", 2)
        return lg.so3_exp(h * np.array([w[0], w[1], 0.0]))

    def sample(rng, count):
        return [
            lg.so3_exp(h * np.array([*(rng.normal(size=2) * 0.8 + 0.3), 0.0]))
            for _ in range(count)
        ]

    names = [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return NhProblem(
        name="suslov",
        backend=bk,
        lagrangian=_so3_form(JJ / h),
        constraints=ConstraintSet(codim=1, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(
            rank=2, basis=lambda x: basis_mat, annihilator=lambda x: ann_mat
        ),
        h=h,
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
    m, a, b, J = _numbers(m=m, a=a, b=b, J=J)
    if m <= 0 or J <= 0:
        raise ConfigError("m and J must be positive")
    K = np.array(
        [
            [J / 2 + m * a * a, m * a * b, m * a],
            [m * a * b, J / 2 + m * b * b, m * b],
            [m * a, m * b, m],
        ]
    )
    bk = LieGroupGroupoid("se2")

    kin = _se2_form(K)
    half_trace = 0.5 * float(np.trace(K))

    def phi(g):
        th, x, y = g
        return np.array([x * np.sin(th / 2) - y * np.cos(th / 2)])

    def phi_grad(g):
        """Gradient of phi in the triple (theta, x, y), as a 1x3 row."""
        th, x, y = g
        sh, ch = np.sin(th / 2), np.cos(th / 2)
        return np.array([[0.5 * (x * ch + y * sh), sh, -ch]])

    def basis(x):
        # blade direction and rotation about the contact point
        return np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def build_initial(cfg):
        check_keys(cfg, {"xi"}, "initial")
        if "xi" not in cfg:
            raise ConfigError("initial needs xi = [turn rate, forward speed] per step")
        v = _finite(cfg["xi"], "xi", 2)
        return lg.se2_exp(np.array([v[0], v[1], 0.0]))

    def sample(rng, count):
        return [
            lg.se2_exp(np.array([rng.normal() * 0.25, rng.normal() * 0.3, 0.0]))
            for _ in range(count)
        ]

    return NhProblem(
        name="chaplygin_sleigh",
        backend=bk,
        lagrangian=dataclasses.replace(kin, eval=lambda g: kin.eval(g) - half_trace),
        constraints=ConstraintSet(
            codim=1,
            phi=phi,
            left_jac=lambda g: phi_grad(g) @ lg.se2_left_jacobian(g),
            right_jac=lambda g: phi_grad(g) @ lg.se2_right_jacobian(g),
        ),
        distribution=Distribution(
            rank=2,
            basis=basis,
            annihilator=lambda x: np.array([[0.0], [0.0], [1.0]]),
        ),
        h=None,
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
    h, m, g, l = _numbers(h=h, m=m, g=g, l=l)
    if h <= 0 or m <= 0:
        raise ConfigError("h and m must be positive")
    II = _sym_pd(np.diag([2.0, 3.0, 4.0]) if I is None else I, "I")
    TF = 0.5 * np.trace(II) * np.eye(3) - II  # trace-form matrix of the kinetic term
    evec = _finite(e, "e", 3)
    bk = ActionGroupoid()
    mgl = m * g * l

    kin = _so3_form(TF / h)

    def rgrad(el):
        # the right curve moves gamma too, so only this gradient sees the potential
        gam, W = el
        return kin.right_grad(W) - h * mgl * lg.cross3(gam, evec)

    def phi(el):
        gam, W = el
        return np.array([float(gam @ lg.axial(W))])

    def phi_left(el):
        gam, W = el
        return (gam @ lg.axial_right_mul(W))[None, :]

    def phi_right(el):
        # the right curve moves gamma too: d gamma = gamma x v
        gam, W = el
        return (lg.cross3(gam, lg.axial(W)) + gam @ lg.axial_left_mul(W))[None, :]

    def guard(el):
        gam, W = el
        tr = float(np.trace(W))
        if abs(tr - 3.0) < 1e-6 or abs(tr + 1.0) < 1e-6:
            raise SingularError(
                f"veselova: rotation angle at the guard set (trace {tr:.6f})"
            )
        if float(np.max(np.abs(W @ gam - gam))) <= 1e-8:
            raise SingularError("veselova: rotation nearly fixes gamma")

    def build_initial(cfg):
        check_keys(cfg, {"gamma", "omega"}, "initial")
        if "gamma" not in cfg or "omega" not in cfg:
            raise ConfigError("initial needs gamma and omega")
        gam = _finite(cfg["gamma"], "gamma", 3)
        nrm = np.linalg.norm(gam)
        if nrm < 1e-12:
            raise ConfigError("gamma must be nonzero")
        gam = gam / nrm
        w = _finite(cfg["omega"], "omega", 3)
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
            w = w / np.linalg.norm(w)  # unit rate keeps the guard happy
            out.append((gam, lg.so3_exp(h * w)))
        return out

    names = ["g1", "g2", "g3"] + [f"R{i}{j}" for i in range(1, 4) for j in range(1, 4)]
    return NhProblem(
        name="veselova",
        backend=bk,
        lagrangian=Lagrangian(
            eval=lambda el: kin.eval(el[1]) - h * mgl * float(el[0] @ evec),
            left_grad=lambda el: kin.left_grad(el[1]),
            right_grad=rgrad,
            mixed_hess=lambda el: kin.mixed_hess(el[1]),
        ),
        constraints=ConstraintSet(codim=1, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(
            rank=2,
            basis=_complement_basis,
            annihilator=lambda x: np.asarray(x, dtype=float).reshape(3, 1),
        ),
        h=h,
        params={"I": II, "m": m, "g": g, "l": l, "e": evec, "h": h},
        declared_reversible=False,
        domain_guard=guard,
        coord_names=names,
        initial_builder=build_initial,
        sample_states=sample,
    )


# ---------------------------------------------------------------------------
# ball on a rotating table (Atiyah groupoid, group SO(3))


def make_rolling_ball(m=1.0, r=1.0, I=0.4, Omega=1.0, h=0.01):
    """Homogeneous ball rolling without slipping on a table rotating at
    constant rate Omega about the vertical axis."""
    m, r, I, Omega, h = _numbers(m=m, r=r, I=I, Omega=Omega, h=h)
    if h <= 0 or m <= 0 or r <= 0 or I <= 0:
        raise ConfigError("m, r, I, h must be positive")
    bk = AtiyahGroupoid(2, "so3")

    def phi(el):
        p0, p1, W = el
        ax = lg.axial(W)
        return np.array(
            [
                (p1[0] - p0[0]) / h - (r / (2 * h)) * ax[1] + 0.5 * Omega * (p1[1] + p0[1]),
                (p1[1] - p0[1]) / h + (r / (2 * h)) * ax[0] - 0.5 * Omega * (p1[0] + p0[0]),
            ]
        )

    def _phi_jac(base_block, axial_jac):
        rows = np.zeros((2, 5))
        rows[:, :2] = base_block
        rows[0, 2:] = -(r / (2 * h)) * axial_jac[1]
        rows[1, 2:] = (r / (2 * h)) * axial_jac[0]
        return rows

    def phi_left(el):
        return _phi_jac([[1.0 / h, 0.5 * Omega], [-0.5 * Omega, 1.0 / h]], lg.axial_right_mul(el[2]))

    def phi_right(el):
        return _phi_jac([[1.0 / h, -0.5 * Omega], [0.5 * Omega, 1.0 / h]], lg.axial_left_mul(el[2]))

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

    def build_initial(cfg):
        check_keys(cfg, {"xy0", "xy1", "spin"}, "initial")
        if "xy0" not in cfg or "xy1" not in cfg:
            raise ConfigError("initial needs xy0 and xy1")
        p0 = _finite(cfg["xy0"], "xy0", 2)
        p1 = _finite(cfg["xy1"], "xy1", 2)
        (w3,) = _numbers(spin=cfg.get("spin", 0.0))
        w = np.array(
            [
                (2 * h / r) * (0.5 * Omega * (p1[0] + p0[0]) - (p1[1] - p0[1]) / h),
                (2 * h / r) * ((p1[0] - p0[0]) / h + 0.5 * Omega * (p1[1] + p0[1])),
                w3,
            ]
        )
        nw = np.linalg.norm(w)
        if nw > 2.0 - 1e-12:
            raise ConfigError("initial displacement too large for one step")
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
            dim=1,
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
        constraints=ConstraintSet(codim=2, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(
            rank=3, basis=lambda x: basis_mat, annihilator=lambda x: ann_mat
        ),
        h=h,
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
    symmetric robot has l = 0).  Pure rolling of both wheels."""
    m0, m1, J, J1, R, c, l, h = _numbers(m0=m0, m1=m1, J=J, J1=J1, R=R, c=c, l=l, h=h)
    if h <= 0 or R <= 0 or c <= 0 or J1 <= 0:
        raise ConfigError("h, R, c, J1 must be positive")
    mtot = m0 + 2.0 * m1
    K = np.array(
        [
            [J / 2, 0.0, m0 * l],
            [0.0, J / 2, 0.0],
            [m0 * l, 0.0, mtot],
        ]
    )
    bk = AtiyahGroupoid(2, "se2")
    dsinc = lambda s: (-s / 3 + s**3 / 30) if abs(s) < 1e-4 else (s * np.cos(s) - np.sin(s)) / s**2
    dvc = lambda s: (0.5 - s * s / 8) if abs(s) < 1e-4 else (s * np.sin(s) - (1 - np.cos(s))) / s**2

    def _sincs(el):
        p0, p1, g = el
        dphi = p1[0] - p0[0]
        dpsi = p1[1] - p0[1]
        s = R * (dphi - dpsi) / (2 * c)
        return dphi, dpsi, s

    def phi(el):
        th, x, y = el[2]
        dphi, dpsi, s = _sincs(el)
        tot = dphi + dpsi
        return np.array(
            [
                th + R * (dphi - dpsi) / (2 * c),
                x + 0.5 * R * tot * lg.sinc(s),
                y - 0.5 * R * tot * lg.versine_over(s),
            ]
        )

    def _phi_jac(el, group_jac):
        dphi, dpsi, s = _sincs(el)
        tot = dphi + dpsi
        rows = np.zeros((3, 5))
        # base columns: both charts shift (dphi, dpsi) by +u
        for j, sgn in ((0, 1.0), (1, -1.0)):
            ds = sgn * R / (2 * c)
            rows[0, j] = R * sgn / (2 * c)
            rows[1, j] = 0.5 * R * (lg.sinc(s) + tot * dsinc(s) * ds)
            rows[2, j] = -0.5 * R * (lg.versine_over(s) + tot * dvc(s) * ds)
        # group columns: phi is (theta, x, y) plus a function of the wheels
        rows[:, 2:] = group_jac(el[2])
        return rows

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

    def build_initial(cfg):
        check_keys(cfg, {"wheels0", "wheels1", "dphi", "dpsi"}, "initial")
        if "wheels0" not in cfg:
            raise ConfigError("initial needs wheels0")
        p0 = _finite(cfg["wheels0"], "wheels0", 2)
        if "wheels1" in cfg:
            p1 = _finite(cfg["wheels1"], "wheels1", 2)
        elif "dphi" in cfg and "dpsi" in cfg:
            p1 = p0 + np.array(_numbers(dphi=cfg["dphi"], dpsi=cfg["dpsi"]))
        else:
            raise ConfigError("initial needs wheels1 or dphi/dpsi")
        dphi, dpsi = p1 - p0
        s = R * (dphi - dpsi) / (2 * c)
        if abs(s) >= np.pi:
            raise ConfigError("wheel increment turns the frame past the chart cut")
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
        distribution=Distribution(
            rank=2, basis=lambda x: basis_mat, annihilator=lambda x: ann_mat
        ),
        h=h,
        params={"m0": m0, "m1": m1, "J": J, "J1": J1, "R": R, "c": c, "l": l, "h": h},
        declared_reversible=True,
        is_chaplygin=True,
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
    (h,) = _numbers(h=h)
    if h <= 0:
        raise ConfigError("h must be positive")
    bk = PairGroupoid(3)

    def phi(g):
        q1 = g[1]
        return np.array([float(q1 @ q1) - 1.0])

    def phi_left(g):
        return (2.0 * g[1])[None, :]

    def phi_right(g):
        return np.zeros((1, 3))

    def build_initial(cfg):
        check_keys(cfg, {"q0", "q1", "velocity"}, "initial")
        if "q0" not in cfg:
            raise ConfigError("initial needs q0")
        q0 = _finite(cfg["q0"], "q0", 3)
        n0 = np.linalg.norm(q0)
        if n0 < 1e-12:
            raise ConfigError("q0 must be nonzero")
        q0 = q0 / n0
        if "q1" in cfg:
            q1 = _finite(cfg["q1"], "q1", 3)
            n1 = np.linalg.norm(q1)
            if n1 < 1e-12:
                raise ConfigError("q1 must be nonzero")
            q1 = q1 / n1
        elif "velocity" in cfg:
            v = _finite(cfg["velocity"], "velocity", 3)
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
        lagrangian=_pair_form(1.0, h, 3),
        constraints=ConstraintSet(codim=1, phi=phi, left_jac=phi_left, right_jac=phi_right),
        distribution=Distribution(
            rank=2,
            basis=_complement_basis,
            annihilator=lambda x: 2.0 * np.asarray(x, dtype=float).reshape(3, 1),
        ),
        h=h,
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
