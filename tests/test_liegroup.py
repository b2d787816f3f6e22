"""Group-kernel tests: hand-rolled exp/log against scipy, adjoint identities."""

import numpy as np
import pytest
import scipy.linalg
from conftest import se2_Ad, se2_element, se2_hat, so3_hat, so3_vee
from hypothesis import given, settings
from hypothesis import strategies as st

from nhmech.errors import ChartDomainError
from nhmech.liegroup import (
    axial,
    axial_left_mul,
    axial_right_mul,
    cross3,
    se2_compose,
    se2_exp,
    se2_identity,
    se2_invert,
    se2_left_jacobian,
    se2_log,
    se2_matrix,
    se2_right_jacobian,
    sinc,
    so3_exp,
    so3_log,
    versine_over,
    wrap_angle,
)

RNG = np.random.default_rng(20260815)


def small_vec(draw_scale=1.5):
    return st.lists(
        st.floats(-draw_scale, draw_scale, allow_nan=False), min_size=3, max_size=3
    ).map(np.array)


def test_hat_vee_roundtrip():
    w = np.array([0.3, -1.2, 2.5])
    W = so3_hat(w)
    assert np.allclose(W + W.T, 0.0)
    assert np.allclose(so3_vee(W), w)
    assert np.allclose(axial(W), 2 * w)
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(W @ v, np.cross(w, v))


def test_cross3_is_np_cross_bit_for_bit():
    for _ in range(200):
        a = RNG.normal(size=3) * 10.0 ** RNG.integers(-6, 6)
        b = RNG.normal(size=3)
        assert np.array_equal(cross3(a, b), np.cross(a, b))


def test_axial_mul_closed_forms_match_loops():
    # any 3x3 matrix, and a rotation near the identity where tr(M) - M_jj
    # would cancel; the closed forms reproduce the loops bit for bit
    E = [so3_hat(e) for e in np.eye(3)]
    for M in (RNG.normal(size=(3, 3)), so3_exp(np.array([1e-3, -2e-3, 5e-4]))):
        right = np.column_stack([axial(M @ Ej) for Ej in E])
        left = np.column_stack([axial(Ej @ M) for Ej in E])
        assert np.array_equal(axial_right_mul(M), right)
        assert np.array_equal(axial_left_mul(M), left)
        assert np.allclose(axial_right_mul(M), np.trace(M) * np.eye(3) - M.T, atol=1e-15)
        assert np.allclose(axial_left_mul(M), np.trace(M) * np.eye(3) - M, atol=1e-15)


def test_se2_chart_jacobians_match_loops():
    # column j: the velocity of (theta, x, y) along g exp(t e_j) (left) and
    # exp(s e_j) g (right), written out per component
    th, x, y = g = se2_element(0.7, -1.2, 0.4)
    left = np.empty((3, 3))
    right = np.empty((3, 3))
    for j, (om, v1, v2) in enumerate(np.eye(3)):
        left[:, j] = [om, np.cos(th) * v1 - np.sin(th) * v2, np.sin(th) * v1 + np.cos(th) * v2]
        right[:, j] = [om, v1 - om * y, v2 + om * x]
    assert np.array_equal(se2_left_jacobian(g), left)
    assert np.array_equal(se2_right_jacobian(g), right)


@given(small_vec())
@settings(max_examples=60, deadline=None)
def test_so3_exp_matches_scipy(w):
    R = so3_exp(w)
    assert np.allclose(R, scipy.linalg.expm(so3_hat(w)), atol=1e-12)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(R), 1.0)


@given(small_vec(2.9))
@settings(max_examples=60, deadline=None)
def test_so3_log_roundtrip(w):
    # stay inside the principal branch
    th = np.linalg.norm(w)
    if th > np.pi - 1e-3:
        w = w * (np.pi - 1e-3) / th
    assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-9)


def test_so3_log_tiny_angle_series():
    w = np.array([1e-9, -2e-9, 3e-10])
    assert np.allclose(so3_log(so3_exp(w)), w, atol=1e-17)


def test_so3_log_near_pi_branch():
    # angle pi - 1e-6 exercises the axis-extraction branch
    n = np.array([1.0, 2.0, 2.0]) / 3.0
    w = (np.pi - 1e-6) * n
    got = so3_log(so3_exp(w))
    assert np.allclose(got, w, atol=1e-8)


def test_so3_log_raises_at_pi():
    R = so3_exp(np.array([np.pi, 0.0, 0.0]))
    with pytest.raises(ChartDomainError):
        so3_log(R)


# ---------------------------------------------------------------------------
# SE(2)


def se2_strategy():
    return st.tuples(
        st.floats(-3.0, 3.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
        st.floats(-2.0, 2.0, allow_nan=False),
    ).map(lambda t: se2_element(*t))


def test_wrap_angle_range():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi / 2) == pytest.approx(-np.pi / 2)
    assert wrap_angle(0.3) == pytest.approx(0.3)


def test_wrap_angle_returns_in_range_angles_unchanged():
    for theta in [*np.linspace(-3.1, 3.1, 1001), 0.1, np.pi, np.nextafter(-np.pi, 0.0)]:
        assert wrap_angle(theta) == theta
    assert wrap_angle(-np.pi) == np.pi


@given(st.floats(-20.0, 20.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_wrap_angle_moves_by_whole_turns(theta):
    w = wrap_angle(theta)
    assert -np.pi < w <= np.pi
    turns = (theta - w) / (2 * np.pi)
    assert abs(turns - round(turns)) <= 4 * np.finfo(float).eps * max(1.0, abs(theta))


def test_wrap_angle_out_of_range():
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-15)
    assert wrap_angle(-7.5) == pytest.approx(-7.5 + 2 * np.pi, abs=1e-15)


def test_scalar_series_helpers():
    for s in [1e-9, 1e-5, 1e-3, 0.5]:
        assert np.isclose(sinc(s), np.sin(s) / s, rtol=1e-14)
        # stable reference: (1 - cos s)/s = 2 sin^2(s/2)/s
        assert np.isclose(versine_over(s), 2 * np.sin(s / 2) ** 2 / s, rtol=1e-12)


@given(se2_strategy(), se2_strategy())
@settings(max_examples=60, deadline=None)
def test_se2_compose_matches_matrix_product(g, h):
    M = se2_matrix(se2_compose(g, h))
    assert np.allclose(M, se2_matrix(g) @ se2_matrix(h), atol=1e-12)


@given(se2_strategy())
@settings(max_examples=60, deadline=None)
def test_se2_inverse(g):
    gi = se2_invert(g)
    assert np.allclose(se2_matrix(gi), np.linalg.inv(se2_matrix(g)), atol=1e-12)
    assert np.allclose(se2_compose(g, gi), se2_identity(), atol=1e-12)


def test_se2_exp_matches_scipy():
    for xi in [np.array([0.7, 0.3, -1.1]), np.array([0.0, 1.0, 2.0]), np.array([1e-9, 0.5, 0.5])]:
        assert np.allclose(se2_matrix(se2_exp(xi)), scipy.linalg.expm(se2_hat(xi)), atol=1e-12)


@given(
    st.floats(-2.9, 2.9, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_se2_log_roundtrip(om, v1, v2):
    xi = np.array([om, v1, v2])
    assert np.allclose(se2_log(se2_exp(xi)), xi, atol=1e-9)


def test_se2_log_raises_at_pi():
    with pytest.raises(ChartDomainError):
        se2_log(se2_element(np.pi, 0.2, 0.1))


def test_se2_algebra_brackets():
    # [e, e1] = e2 and [e, e2] = -e1 in the chosen basis
    e = se2_hat([1.0, 0.0, 0.0])
    e1 = se2_hat([0.0, 1.0, 0.0])
    e2 = se2_hat([0.0, 0.0, 1.0])
    assert np.allclose(e @ e1 - e1 @ e, e2)
    assert np.allclose(e @ e2 - e2 @ e, -e1)


def test_se2_adjoint_is_conjugation():
    g = se2_element(0.8, -0.4, 1.3)
    xi = np.array([0.5, 0.2, -0.9])
    lhs = se2_hat(se2_Ad(g, xi))
    M = se2_matrix(g)
    assert np.allclose(lhs, M @ se2_hat(xi) @ np.linalg.inv(M), atol=1e-12)
