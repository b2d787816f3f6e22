"""Backend structure maps, chart roundtrips, and the derivative engine."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from types import SimpleNamespace

from conftest import element_gap, mirror_center, se2_element, se2_hat, so3_hat

from nhmech.errors import ChartDomainError, NotComposableError
from nhmech.groupoid import (
    ActionGroupoid,
    AtiyahGroupoid,
    LieGroupGroupoid,
    PairGroupoid,
    anchor_matrix,
    cross_form,
    left_deriv,
    left_jacobian,
    right_curve,
    right_deriv,
    right_jacobian,
)
from nhmech.liegroup import (
    axial,
    axial_left_mul,
    axial_right_mul,
    se2_left_jacobian,
    se2_matrix,
    se2_right_jacobian,
    so3_exp,
)

RNG = np.random.default_rng(7)


def backends_with_samples():
    """(backend, element sampler) pairs covering all four groupoid kinds."""
    pair = PairGroupoid(3)
    lie_so3 = LieGroupGroupoid("so3")
    lie_se2 = LieGroupGroupoid("se2")
    act = ActionGroupoid()
    aty = AtiyahGroupoid(2, "so3")
    aty_se2 = AtiyahGroupoid(2, "se2")

    def sample_pair(rng):
        return (rng.normal(size=3), rng.normal(size=3))

    def sample_so3(rng):
        return so3_exp(rng.normal(size=3) * 0.8)

    def sample_se2(rng):
        return se2_element(*rng.normal(size=3))

    def sample_act(rng):
        x = rng.normal(size=3)
        return (x / np.linalg.norm(x), so3_exp(rng.normal(size=3) * 0.8))

    def sample_aty(rng):
        return (rng.normal(size=2), rng.normal(size=2), so3_exp(rng.normal(size=3) * 0.8))

    def sample_aty_se2(rng):
        return (rng.normal(size=2), rng.normal(size=2), se2_element(*rng.normal(size=3)))

    return [
        (pair, sample_pair),
        (lie_so3, sample_so3),
        (lie_se2, sample_se2),
        (act, sample_act),
        (aty, sample_aty),
        (aty_se2, sample_aty_se2),
    ]


@pytest.mark.parametrize("bk,sample", backends_with_samples())
def test_groupoid_axioms(bk, sample):
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = sample(rng)
        x, y = bk.source(g), bk.target(g)
        # units
        assert element_gap(bk, bk.compose(bk.identity(x), g), g) < 1e-12
        assert element_gap(bk, bk.compose(g, bk.identity(y)), g) < 1e-12
        # inverse
        assert element_gap(bk, bk.compose(g, bk.invert(g)), bk.identity(x)) < 1e-12
        assert element_gap(bk, bk.compose(bk.invert(g), g), bk.identity(y)) < 1e-12
        # source/target of the inverse swap
        assert np.allclose(bk.source(bk.invert(g)), np.asarray(y), atol=1e-12)
        assert np.allclose(bk.target(bk.invert(g)), np.asarray(x), atol=1e-12)


@pytest.mark.parametrize("bk,sample", backends_with_samples())
def test_associativity_along_fibers(bk, sample):
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = sample(rng)
        # build a composable chain by retracting from units at the right bases
        u1 = rng.normal(size=bk.fiber_dim) * 0.3
        u2 = rng.normal(size=bk.fiber_dim) * 0.3
        h = bk.retract(bk.identity(bk.target(g)), u1)
        k = bk.retract(bk.identity(bk.target(h)), u2)
        lhs = bk.compose(bk.compose(g, h), k)
        rhs = bk.compose(g, bk.compose(h, k))
        assert element_gap(bk, lhs, rhs) < 1e-10


@pytest.mark.parametrize("bk,sample", backends_with_samples())
def test_retract_coords_roundtrip(bk, sample):
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = sample(rng)
        u = rng.normal(size=bk.fiber_dim) * 0.5
        g = bk.retract(c, u)
        assert np.allclose(bk.coords(c, g), u, atol=1e-9)
        # retract stays on the source fiber
        assert np.allclose(np.asarray(bk.source(g)), np.asarray(bk.source(c)), atol=1e-12)


@pytest.mark.parametrize("bk,sample", backends_with_samples())
def test_mirror_matches_chart_round_trip(bk, sample):
    # closed form against the generic log-then-exp first guess; on the pair
    # backend no log or exp is involved and the two agree bit for bit
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = sample(rng)
        guess, oracle = bk.mirror(g), mirror_center(SimpleNamespace(backend=bk), g)
        assert element_gap(bk, guess, oracle) <= (0.0 if isinstance(bk, PairGroupoid) else 1e-14)


def _near_cut_elements(angle):
    """One element per backend with a rotation part at ``angle``."""
    axis = np.array([0.48, -0.6, 0.64])
    R = so3_exp(angle * axis)
    x = np.array([0.6, 0.0, 0.8])
    pts = (np.array([0.3, -0.1]), np.array([0.35, -0.2]))
    G = se2_element(angle, 0.2, -0.4)
    return [
        (LieGroupGroupoid("so3"), R),
        (LieGroupGroupoid("se2"), G),
        (ActionGroupoid(), (x, R)),
        (AtiyahGroupoid(2, "so3"), (*pts, R)),
        (AtiyahGroupoid(2, "se2"), (*pts, G)),
    ]


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("d", [0.0, 5e-11, 2e-10, 1e-6])
def test_mirror_refuses_the_chart_cut_like_the_round_trip(d, sign):
    # pi - d with d below the 1e-10 cut must raise on both paths, above it
    # neither may
    for bk, g in _near_cut_elements(sign * (np.pi - d)):
        outcomes = []
        for first_guess in (bk.mirror, lambda g: mirror_center(SimpleNamespace(backend=bk), g)):
            try:
                first_guess(g)
                outcomes.append("returned")
            except ChartDomainError:
                outcomes.append("raised")
        assert outcomes[0] == outcomes[1], (type(bk).__name__, d, sign)
        assert outcomes[0] == ("raised" if d < 1e-10 else "returned")


def test_not_composable_raised():
    pair = PairGroupoid(2)
    with pytest.raises(NotComposableError):
        pair.compose((np.zeros(2), np.ones(2)), (np.zeros(2), np.zeros(2)))
    aty = AtiyahGroupoid(1, "se2")
    g = (np.array([0.0]), np.array([1.0]), se2_element(0.1, 0.2, 0.3))
    with pytest.raises(NotComposableError):
        aty.compose(g, g)
    act = ActionGroupoid()
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(NotComposableError):
        act.compose((e1, np.eye(3)), (e2, np.eye(3)))


def test_coords_refuses_elements_on_different_source_fibers():
    p0, p1 = np.array([0.3, -0.1]), np.array([0.35, -0.2])
    R, G = so3_exp(np.array([0.1, 0.2, 0.3])), se2_element(0.1, 0.2, 0.3)
    e1, e2 = np.eye(3)[:2]
    for bk, c, g in [
        (PairGroupoid(2), (p0, p1), (p1, p1)),
        (ActionGroupoid(), (e1, R), (e2, R)),
        (AtiyahGroupoid(2, "so3"), (p0, p1, R), (p1, p1, R)),
        (AtiyahGroupoid(2, "se2"), (p0, p1, G), (p1, p1, G)),
    ]:
        with pytest.raises(NotComposableError):
            bk.coords(c, g)


# ---------------------------------------------------------------------------
# derivative engine


def test_pair_derivs_are_partials():
    bk = PairGroupoid(3)
    A = RNG.normal(size=(3, 3))
    f = lambda g: float(g[0] @ A @ g[1])
    g = (RNG.normal(size=3), RNG.normal(size=3))
    v = RNG.normal(size=3)
    assert np.isclose(left_deriv(bk, f, g, v), (A.T @ g[0]) @ v, atol=1e-8)
    assert np.isclose(right_deriv(bk, f, g, v), -(A @ g[1]) @ v, atol=1e-8)


def test_lie_group_right_deriv_is_left_translation():
    for name, hat, mat in [
        ("so3", so3_hat, lambda R: R),
        ("se2", se2_hat, se2_matrix),
    ]:
        bk = LieGroupGroupoid(name)
        B = RNG.normal(size=(3, 3))
        f = lambda g: float(np.trace(B @ mat(g)))
        g = bk.retract(bk.identity(), RNG.normal(size=3) * 0.7)
        v = RNG.normal(size=3)
        t = 1e-6

        def oracle(side):
            E = scipy.linalg.expm(t * hat(v)), scipy.linalg.expm(-t * hat(v))
            M = mat(g)
            if side == "right":
                return (np.trace(B @ E[0] @ M) - np.trace(B @ E[1] @ M)) / (2 * t)
            return (np.trace(B @ M @ E[0]) - np.trace(B @ M @ E[1])) / (2 * t)

        assert np.isclose(right_deriv(bk, f, g, v), oracle("right"), atol=1e-6)
        assert np.isclose(left_deriv(bk, f, g, v), oracle("left"), atol=1e-6)


def test_action_right_deriv_moves_base_and_group():
    bk = ActionGroupoid()
    c = RNG.normal(size=3)
    B = RNG.normal(size=(3, 3))
    f = lambda g: float(c @ g[0] + np.trace(B @ g[1]))
    x = np.array([0.0, 0.0, 1.0])
    R = so3_exp(np.array([0.2, -0.1, 0.4]))
    g = (x, R)
    v = RNG.normal(size=3)
    t = 1e-6
    # curve (x . exp(-s v), exp(s v) R) differentiated with an independent expm
    Ep = scipy.linalg.expm(t * so3_hat(v))
    Em = scipy.linalg.expm(-t * so3_hat(v))
    oracle = (
        (c @ (Em.T @ x) + np.trace(B @ Ep @ R)) - (c @ (Ep.T @ x) + np.trace(B @ Em @ R))
    ) / (2 * t)
    assert np.isclose(right_deriv(bk, f, g, v), oracle, atol=1e-6)
    # base velocity of the right curve is minus the anchor image, v cross x
    s = 1e-7
    gp = right_curve(bk, g, s, v)
    assert np.allclose((gp[0] - x) / s, np.cross(v, x), atol=1e-6)


def test_atiyah_derivs_split_base_and_group():
    bk = AtiyahGroupoid(2, "so3")
    a = RNG.normal(size=2)
    b = RNG.normal(size=2)
    B = RNG.normal(size=(3, 3))
    f = lambda g: float(a @ g[0] + b @ g[1] + np.trace(B @ g[2]))
    g = (RNG.normal(size=2), RNG.normal(size=2), so3_exp(RNG.normal(size=3) * 0.5))
    v = RNG.normal(size=5)
    # left: moves (p1, G) only; right: moves (p0, G) only
    lval = left_deriv(bk, f, g, v)
    assert np.isclose(lval, b @ v[:2] + left_deriv(LieGroupGroupoid("so3"), lambda R: float(np.trace(B @ R)), g[2], v[2:]), atol=1e-7)
    rval = right_deriv(bk, f, g, v)
    assert np.isclose(rval, -a @ v[:2] + right_deriv(LieGroupGroupoid("so3"), lambda R: float(np.trace(B @ R)), g[2], v[2:]), atol=1e-7)


def test_cross_form_pair_is_mixed_hessian():
    bk = PairGroupoid(3)
    A = RNG.normal(size=(3, 3))
    f = lambda g: float(g[0] @ A @ g[1])
    g = (RNG.normal(size=3), RNG.normal(size=3))
    a = RNG.normal(size=3)
    b = RNG.normal(size=3)
    assert np.isclose(cross_form(bk, f, g, a, b), a @ A @ b, rtol=1e-5, atol=1e-7)
    # exact left gradient tightens the outer difference
    rule = lambda h: A.T @ h[0]
    assert np.isclose(cross_form(bk, f, g, a, b, left_rule=rule), a @ A @ b, rtol=1e-8, atol=1e-10)


def test_cross_form_free_particle_sign():
    h = 0.1
    bk = PairGroupoid(2)
    L = lambda g: float(np.sum((g[1] - g[0]) ** 2)) / (2 * h * h)
    g = (np.array([0.3, -0.2]), np.array([0.5, 0.1]))
    a = np.array([1.0, 2.0])
    b = np.array([-0.5, 1.5])
    assert np.isclose(cross_form(bk, L, g, a, b), -(a @ b) / h**2, rtol=1e-5)


def test_cross_form_separable_vanishes():
    bk = PairGroupoid(2)
    f = lambda g: float(np.sin(g[0][0]) + g[0][1] ** 2 + np.exp(0.3 * g[1][0]) + g[1][1])
    g = (np.array([0.2, 0.4]), np.array([-0.1, 0.7]))
    val = cross_form(bk, f, g, np.array([1.0, 1.0]), np.array([1.0, -1.0]))
    assert abs(val) < 1e-5


def test_left_right_derivs_commute():
    # [lvec, rvec] = 0: nesting order does not matter
    bk = LieGroupGroupoid("so3")
    B = RNG.normal(size=(3, 3))
    f = lambda R: float(np.trace(B @ R) + np.trace(B @ R @ B @ R))
    g = so3_exp(np.array([0.3, 0.5, -0.2]))
    a = np.array([0.7, -0.4, 0.2])
    b = np.array([0.1, 0.9, -0.3])
    one = cross_form(bk, f, g, a, b)
    # manual commuted nesting: -lvec_b(rvec_a f)
    inner = lambda h: right_deriv(bk, f, h, a)
    other = -left_deriv(bk, inner, g, b, step=np.sqrt(6.1e-6))
    assert np.isclose(one, other, rtol=2e-4, atol=1e-6)


def test_deriv_linearity_in_direction():
    bk = ActionGroupoid()
    f = lambda g: float(np.sum(g[0] * g[1][:, 0]) + g[1][0, 0] ** 2)
    x = np.array([0.0, 1.0, 0.0])
    g = (x, so3_exp(np.array([0.1, 0.2, 0.3])))
    a = np.array([0.5, -0.3, 0.8])
    b = np.array([-0.2, 0.4, 0.1])
    for deriv in (left_deriv, right_deriv):
        lab = deriv(bk, f, g, a + b)
        assert np.isclose(lab, deriv(bk, f, g, a) + deriv(bk, f, g, b), rtol=1e-5, atol=1e-7)
        assert np.isclose(deriv(bk, f, g, 2.5 * a), 2.5 * deriv(bk, f, g, a), rtol=1e-6, atol=1e-8)
        assert deriv(bk, f, g, np.zeros(3)) == 0.0


@pytest.mark.parametrize("bk,sample", backends_with_samples())
def test_jacobian_columns_are_directional_derivs(bk, sample):
    # a vector function of every part of the element, and its first entry
    g = sample(np.random.default_rng(11))

    def F(h):
        parts = h if isinstance(h, tuple) else (h,)
        flat = np.concatenate([np.ravel(part) for part in parts])
        return np.sin(flat) + flat[0] * flat

    f = lambda h: float(F(h)[0])
    for jac, deriv in ((left_jacobian, left_deriv), (right_jacobian, right_deriv)):
        J = jac(bk, F, g)
        grad = jac(bk, f, g)
        assert J.shape == (F(g).size, bk.fiber_dim) and grad.shape == (bk.fiber_dim,)
        for j, e in enumerate(np.eye(bk.fiber_dim)):
            assert np.array_equal(J[:, j], deriv(bk, F, g, e))
            assert grad[j] == deriv(bk, f, g, e)


def test_lie_group_backend_knows_only_so3_and_se2():
    with pytest.raises(ValueError, match="so3.*se2"):
        LieGroupGroupoid("so4")


def test_chart_matrices_match_difference_jacobians():
    so3 = LieGroupGroupoid("so3")
    W = so3_exp(np.array([0.4, -0.7, 0.2]))
    assert np.allclose(left_jacobian(so3, axial, W), axial_right_mul(W), atol=1e-9)
    assert np.allclose(right_jacobian(so3, axial, W), axial_left_mul(W), atol=1e-9)
    se2 = LieGroupGroupoid("se2")
    g = se2_element(0.7, -1.2, 0.4)
    assert np.allclose(left_jacobian(se2, np.asarray, g), se2_left_jacobian(g), atol=1e-9)
    assert np.allclose(right_jacobian(se2, np.asarray, g), se2_right_jacobian(g), atol=1e-9)


def test_anchor_matrices():
    pair = PairGroupoid(3)
    assert np.allclose(anchor_matrix(pair, np.zeros(3)), np.eye(3), atol=1e-9)
    aty = AtiyahGroupoid(2, "so3")
    A = anchor_matrix(aty, np.zeros(2))
    assert np.allclose(A, np.hstack([np.eye(2), np.zeros((2, 3))]), atol=1e-9)
    act = ActionGroupoid()
    x = np.array([0.3, -0.5, 0.8])
    A = anchor_matrix(act, x)
    for i, e in enumerate(np.eye(3)):
        assert np.allclose(A[:, i], np.cross(x, e), atol=1e-8)


@given(st.integers(1, 4))
@settings(max_examples=10, deadline=None)
def test_pair_dims(m):
    bk = PairGroupoid(m)
    assert bk.fiber_dim == m and bk.base_dim == m
