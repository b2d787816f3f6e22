"""Closed-form kernels of the regularity test against numpy's SVD.

``problem.kernel_sigmas`` computes the two singular values of a 2x2, 2x3 or
3x2 pairing in closed form, and ``problem._nullspace`` the null space of a
1x3 constraint gradient by a Householder reflection.  These tests hold both
to ``np.linalg.svd`` over scaled, rank-deficient and non-finite inputs, and
hold the sigmas a step reports to the SVD of its pairings.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
