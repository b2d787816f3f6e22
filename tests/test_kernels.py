"""Closed-form kernels of the regularity test against numpy's SVD.

``problem.kernel_sigmas`` computes the two singular values of a 2x2, 2x3 or
3x2 pairing in closed form, and ``problem._nullspace`` the null space of a
1x3 constraint gradient by a Householder reflection (the reference pairings
use it).  A step with one constraint on a 3-dimensional fiber forms neither:
``problem._projected_sigmas`` takes the rows of X^T H (or the columns of
H B) projected off the unit constraint gradient.  These tests hold the
kernels to ``np.linalg.svd`` over scaled, rank-deficient and non-finite
inputs, pin that such a step reaches no null space and no dgesdd, and hold
the sigmas a step reports to the SVD of its pairings.
"""

import numpy as np
import pytest
from conftest import counted
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from test_golden import STARTS

import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import SingularError

EPS = np.finfo(float).eps
SHAPES = [(2, 2), (2, 3), (3, 2)]


def entries(size):
    """size floats in [-1, 1]; magnitudes below 1e-100 become 0, so that no
    scaling drives an entry into the subnormal range."""
    value = st.floats(-1.0, 1.0, allow_nan=False).map(lambda x: x if abs(x) > 1e-100 else 0.0)
    return st.lists(value, min_size=size, max_size=size)


@st.composite
def scaled_pairings(draw):
    shape = draw(st.sampled_from(SHAPES))
    M = np.array(draw(entries(shape[0] * shape[1]))).reshape(shape)
    return M * 10.0 ** draw(st.integers(-150, 150))


def svd_sigmas(M):
    s = np.linalg.svd(M, compute_uv=False)
    return s[1], s[0]


@given(scaled_pairings())
@settings(max_examples=300, deadline=None)
def test_pairing_sigmas_match_svd(M):
    smin, smax = pb.kernel_sigmas(M, 2)
    ref_min, ref_max = svd_sigmas(M)
    assert abs(smax - ref_max) <= 8 * EPS * ref_max
    assert abs(smin - ref_min) <= 8 * EPS * ref_max


@pytest.mark.parametrize("shape", SHAPES)
def test_rank_one_and_zero_pairings(shape):
    rng = np.random.default_rng(3)
    for scale in (1e-150, 1.0, 1e150):
        a = rng.normal(size=shape[0]) * scale
        M = np.outer(a, rng.normal(size=shape[1]))
        smin, smax = pb.kernel_sigmas(M, 2)
        assert smin <= 8 * EPS * smax
        assert smax == pytest.approx(np.linalg.svd(M, compute_uv=False)[0], rel=1e-14)
    assert pb.kernel_sigmas(np.zeros(shape), 2) == (0.0, 0.0)


def test_two_by_one_pairing_is_degenerate():
    M = np.array([[3.0], [4.0]])
    assert pb.kernel_sigmas(M, 2) == (0.0, 5.0)


@given(
    st.sampled_from(SHAPES),
    st.floats(1e-11, 1e-9),
    st.integers(-150, 150),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_verdict_near_the_threshold_matches_svd(shape, ratio, exponent, seed):
    # Each method is accurate to a few eps * sigma_max, i.e. to about 1e-6 of
    # sigma_2 here, so ratios that close to the threshold have no verdict.
    if abs(ratio / sv.REGULARITY_RTOL - 1.0) < 1e-4:
        return
    rng = np.random.default_rng(seed)
    U, _ = np.linalg.qr(rng.normal(size=(shape[0], 2)))
    V, _ = np.linalg.qr(rng.normal(size=(shape[1], 2)))
    M = (U * [1.0, ratio]) @ V.T * 10.0**exponent
    closed = sv.is_nondegenerate(*pb.kernel_sigmas(M, 2))
    assert closed == sv.is_nondegenerate(*svd_sigmas(M))
    assert closed == (ratio > sv.REGULARITY_RTOL)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_pairing_raises(shape, bad):
    M = np.ones(shape)
    M[-1, -1] = bad
    with pytest.raises(SingularError, match="two-point pairing has non-finite entries"):
        pb.kernel_sigmas(M, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_gradient_row_raises(bad):
    with pytest.raises(SingularError, match="constraint gradient has non-finite entries"):
        pb._nullspace(np.array([[1.0, bad, 0.0]]))


@given(entries(3), st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]))
@settings(max_examples=300, deadline=None)
def test_row_null_space_is_orthonormal_and_annihilated(row, scale):
    row = np.array([row]) * scale
    N = pb._nullspace(row)
    if not np.any(row):
        assert np.array_equal(N, np.eye(3))
        return
    assert N.shape == (3, 2)
    assert np.max(np.abs(N.T @ N - np.eye(2))) <= 4 * EPS
    unit = row / np.max(np.abs(row))
    assert np.max(np.abs(unit @ N)) <= 4 * EPS
    # the same plane as the SVD's null space
    _, _, vh = np.linalg.svd(unit)
    assert np.max(np.abs(N @ N.T - vh[1:].T @ vh[1:])) <= 8 * EPS


def test_zero_row_gives_identity():
    assert np.array_equal(pb._nullspace(np.zeros((1, 3))), np.eye(3))


@pytest.mark.parametrize("name", sorted(md.FACTORIES))
def test_step_sigmas_match_svd_of_the_pairings(name):
    p = md.FACTORIES[name]()
    g = p.initial_builder(STARTS[name])
    for _ in range(200):
        res = sv.step(p, g)
        for G, sigma in zip(pb.regularity_matrices(p, g), (res.sigma_min_left, res.sigma_min_right)):
            ref = np.linalg.svd(G, compute_uv=False)[p.r - 1]
            assert abs(sigma - ref) <= 1e-13 * ref
        g = res.next


def complement(grad):
    """An orthonormal basis (columns) of the plane orthogonal to a nonzero
    1x3 row, from numpy's SVD; eye(3) for a zero row."""
    if not np.any(grad):
        return np.eye(3)
    return np.linalg.svd(grad)[2][1:].T


@given(
    entries(6), entries(3),
    st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
    st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]),
)
@settings(max_examples=300, deadline=None)
def test_projected_sigmas_match_svd_of_the_restricted_pairing(rows, grad, scale, grad_scale):
    M = np.array(rows).reshape(2, 3) * scale
    grad = np.array([grad]) * grad_scale
    smin, smax = pb._projected_sigmas(M.tolist(), grad)
    ref_min, ref_max = svd_sigmas(M @ complement(grad))
    # both sides round at the scale of M, not of the restricted pairing
    tol = 16 * EPS * np.linalg.norm(M, 2)
    assert abs(smax - ref_max) <= tol
    assert abs(smin - ref_min) <= tol


def test_zero_gradient_gives_the_full_pairing():
    M = np.random.default_rng(4).normal(size=(2, 3))
    assert pb._projected_sigmas(M.tolist(), np.zeros((1, 3))) == pb.kernel_sigmas(M, 2)


@pytest.mark.parametrize("scale", [1e-200, 1e-8, 1.0, 1e8, 1e200])
def test_rows_along_the_gradient_are_degenerate(scale):
    rng = np.random.default_rng(6)
    for _ in range(200):
        grad = rng.normal(size=(1, 3)) * scale
        grad[0, rng.integers(3)] *= rng.choice([0.0, 1.0])
        along = np.outer(rng.normal(size=2), grad[0] / np.max(np.abs(grad)))
        assert pb._projected_sigmas(along.tolist(), grad) == (0.0, 0.0)
        # one row along the gradient leaves a pairing of rank one
        M = np.vstack([along[:1], rng.normal(size=(1, 3))])
        smin, smax = pb._projected_sigmas(M.tolist(), grad)
        assert smin == 0.0 and smax > 0.0
        assert not sv.is_nondegenerate(smin, smax)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_projected_pairing_raises(bad):
    rows = [[1.0, 2.0, 0.5], [0.0, 1.0, bad]]
    with pytest.raises(SingularError, match="two-point pairing has non-finite entries"):
        pb._projected_sigmas(rows, np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(SingularError, match="constraint gradient has non-finite entries"):
        pb._projected_sigmas([[1.0, 2.0, 0.5]] * 2, np.array([[1.0, bad, 0.0]]))


def test_codimension_one_steps_form_no_null_space(monkeypatch):
    calls = [0]
    monkeypatch.setattr(pb, "_nullspace", counted(pb._nullspace, calls))
    monkeypatch.setattr(lapack, "dgesdd", counted(lapack.dgesdd, calls))
    for name in sorted(md.FACTORIES):
        p = md.FACTORIES[name]()
        g = p.initial_builder(STARTS[name])
        calls[0] = 0
        for _ in range(20):
            g = sv.step(p, g).next
        # the ball's and the robot's tests still take the SVD path
        assert (calls[0] == 0) == (p.k == 1 and p.n == 3), name
