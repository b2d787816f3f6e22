"""Model-library tests.

Each built-in system is checked three ways: its analytic derivative
shortcuts against the finite-difference engine, the algebra of its
distribution basis and annihilator, and the system's own printed equation
forms evaluated on solved trajectories.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from conftest import (complement_basis_oracle, counted, del_covector, element_gap, row_oracle,
                      se2_Ad, se2_element, so3_hat)
from scipy.linalg import null_space
from test_golden import golden_run

import nhmech.diagnostics as dg
import nhmech.groupoid as gpd
import nhmech.liegroup as lg
import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import ConfigError, SingularError
from nhmech.problem import ConstraintSet, Lagrangian

ALL = sorted(md.FACTORIES)

E1 = so3_hat(np.array([1.0, 0.0, 0.0]))
E2 = so3_hat(np.array([0.0, 1.0, 0.0]))
E3 = so3_hat(np.array([0.0, 0.0, 1.0]))

_ROT = lg.so3_exp(np.array([0.2, 0.3, 0.1]))
ROTATED_J = _ROT @ np.diag([1.0, 2.0, 3.0]) @ _ROT.T
ROTATED_I = _ROT.T @ np.diag([2.0, 3.0, 4.0]) @ _ROT

# every built-in system at its defaults, plus instances whose parameters the
# defaults leave at a special value: non-diagonal inertias, an offset center
# of mass and another blade position
INSTANCES = {name: md.FACTORIES[name] for name in ALL}
INSTANCES.update(
    {
        "suslov-rotated_J": lambda: md.make_suslov(J=ROTATED_J),
        "veselova-rotated_I": lambda: md.make_veselova(I=ROTATED_I),
        "mobile_robot-offset_l": lambda: md.make_mobile_robot(l=0.05),
        "chaplygin_sleigh-blade": lambda: md.make_chaplygin_sleigh(a=-0.4, b=0.35),
    }
)


def _samples(p, n=4, seed=2):
    return p.sample_states(np.random.default_rng(seed), n)


def _large_rotations(p, n=4, seed=3):
    """Elements whose rotation part turns by 2.5-3.0 rad either way, where a
    sign slip in a hand-expanded sin or cos term is no longer small (the
    samplers reach about 0.3 rad); none for the particle and the sphere.  The
    robot's wheels turn its frame by the same angle (s = R (dphi - dpsi) / 2c).
    Every angle stays farther than 1e-4 from pi: the sleigh's half-angle phi
    flips sign across the SE(2) cut, so a difference taken across it means
    nothing."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        angle = rng.choice([-1.0, 1.0]) * rng.uniform(2.5, 3.0)
        axis = rng.normal(size=3)
        W = lg.so3_exp(angle * axis / np.linalg.norm(axis))
        turn = se2_element(angle, *rng.normal(size=2))
        p0, gam = rng.normal(size=2), rng.normal(size=3)
        wheels = angle * p.params.get("c", 0.0) / p.params.get("R", 1.0)
        elements = {
            "suslov": W,
            "chaplygin_sleigh": turn,
            "veselova": (gam / np.linalg.norm(gam), W),
            "rolling_ball": (p0, p0 + 0.01 * rng.normal(size=2), W),
            "mobile_robot": (p0, p0 + np.array([wheels, -wheels]) + 0.1 * rng.normal(), turn),
        }
        if p.name in elements:
            out.append(elements[p.name])
    return out


def _strip(p, keep_gradients=False):
    """Same problem with every analytic derivative shortcut removed; with
    ``keep_gradients`` only the mixed second derivative goes, so H comes from
    differencing the exact right gradient."""
    if keep_gradients:
        return dataclasses.replace(
            p, lagrangian=dataclasses.replace(p.lagrangian, mixed_hess=None)
        )
    return dataclasses.replace(
        p,
        lagrangian=Lagrangian(eval=p.lagrangian.eval),
        constraints=ConstraintSet(codim=p.k, phi=p.constraints.phi),
    )


def _rel_gap(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _se2_pair(M):
    """Components of v -> Tr(se2_hat(v) @ M) in the (omega, v1, v2) basis."""
    return np.array([M[0, 1] - M[1, 0], M[2, 0], M[2, 1]])


class TestAnalyticDerivatives:
    @pytest.mark.parametrize("name", INSTANCES)
    def test_lagrangian_gradients_match_fd(self, name):
        p = INSTANCES[name]()
        q = _strip(p)
        rng = np.random.default_rng(1)
        for g in _samples(p) + _large_rotations(p):
            for _ in range(3):
                v = rng.normal(size=p.n)
                fl = q.left_grad(g) @ v
                fr = q.right_grad(g) @ v
                assert abs(p.left_grad(g) @ v - fl) <= 1e-6 * (1 + abs(fl))
                assert abs(p.right_grad(g) @ v - fr) <= 1e-6 * (1 + abs(fr))

    @pytest.mark.parametrize("name", ALL)
    def test_constraint_jacobians_match_fd(self, name):
        p = md.FACTORIES[name]()
        q = _strip(p)
        for g in _samples(p) + _large_rotations(p):
            fd_l = q.phi_left_jac(g)
            fd_r = q.phi_right_jac(g)
            scale = 1 + np.max(np.abs(fd_l)) + np.max(np.abs(fd_r))
            assert np.max(np.abs(p.phi_left_jac(g) - fd_l)) <= 1e-6 * scale
            assert np.max(np.abs(p.phi_right_jac(g) - fd_r)) <= 1e-6 * scale

    @pytest.mark.parametrize("name", INSTANCES)
    def test_mixed_hess_matches_gradient_difference(self, name):
        # central difference of the exact gradient at FD_STEP: truncation and
        # roundoff are both ~eps^(2/3) relative
        p = INSTANCES[name]()
        q = _strip(p, keep_gradients=True)
        for g in _samples(p, 6):
            assert p.mixed_hess(g).shape == (p.n, p.n)
            assert _rel_gap(p.mixed_hess(g), q.mixed_hess(g)) <= 1e-9

    @pytest.mark.parametrize("name", INSTANCES)
    def test_mixed_hess_matches_nested_difference(self, name):
        # no gradients at all: the fallback differences a difference quotient
        # at FD_STEP_OUTER, whose truncation error (~t^2/6) is ~1e-6 relative
        p = INSTANCES[name]()
        q = _strip(p)
        for g in _samples(p, 2):
            assert _rel_gap(p.mixed_hess(g), q.mixed_hess(g)) <= 1e-5

    @pytest.mark.parametrize("name", INSTANCES)
    def test_newton_matrix_matches_residual_difference(self, name):
        p = INSTANCES[name]()
        for g in _samples(p, 6):
            center = p.backend.mirror(g)
            J = pb.StepFrame(p, g).newton_matrix(center)
            assert _rel_gap(J, pb.newton_jacobian_fd(p, g, center)) <= 1e-9

    def test_so3_mixed_hess_columns(self):
        # the closed form axial_left_mul(W J) W against its definition, column
        # j = axial(W E_j J), for a symmetric J with no special structure
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 3))
        _, _, _, hess = md._so3_form(A + A.T)
        for _ in range(10):
            W = lg.so3_exp(rng.normal(size=3))
            ref = np.column_stack([lg.axial(W @ E @ (A + A.T)) for E in (E1, E2, E3)])
            assert _rel_gap(hess(W, W.tolist()), ref) <= 1e-14

    @pytest.mark.parametrize("name", ALL)
    def test_regularity_matrices_match_cross_form(self, name):
        # nested-difference two-point form on the same tangent bases
        p = md.FACTORIES[name]()
        bk = p.backend

        def cross(g, a, b):
            return gpd.cross_form(bk, p.lagrangian.eval, g, a, b, left_rule=p.lagrangian.left_grad)

        for g in _samples(p, 4):
            Xa = p.distribution.basis(bk.source(g))
            Xb = p.distribution.basis(bk.target(g))
            W = null_space(p.phi_left_jac(g))  # left tangent directions
            V = null_space(p.phi_right_jac(g))  # right tangent directions
            ref_left = np.array([[cross(g, a, w) for w in W.T] for a in Xa.T])
            ref_right = np.array([[cross(g, v, b) for b in Xb.T] for v in V.T])
            G_left, G_right = pb.regularity_matrices(p, g)
            assert _rel_gap(G_left, ref_left) <= 1e-8
            assert _rel_gap(G_right, ref_right) <= 1e-8

    def test_se2_form_gradients_match_the_matrix_form(self):
        """The closed-form SE(2) gradients against pair(K (W^T W - W)) and
        pair(W K W^T - W K), with pair(M) = (M01 - M10, M20, M21), from the
        same floats c, s, x, y and K.

        Bound, with u = eps/2, kappa = max |K_ij| and rho = 1 + |x| + |y|:
        every row and column of W has absolute sum at most 2 rho, so the
        entries of |W| |K| are below 2 kappa rho and those of |W| |K| |W^T|
        (or |K| |W^T| |W|) below 4 kappa rho^2.  The two chained 3-term
        products err by at most 6u times the latter (12 eps kappa rho^2), the
        single product by 3u times the former (3 eps kappa rho^2), and the
        subtraction rounds an entry below 6 kappa rho^2 (3 eps kappa rho^2):
        each of M01, M10 is within 18 eps kappa rho^2, and their rounded
        difference within 42 eps kappa rho^2.  The closed form sums at most
        five products below kappa rho each, within 6 eps kappa rho.  So the
        two differ by at most 48 eps kappa rho^2; the test allows 64.
        """
        rng = np.random.default_rng(21)
        for _ in range(500):
            A = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-2, 2)
            K = A + A.T
            assert K[0, 1] != 0.0 and K[0, 2] != 0.0
            _, left_grad, right_grad, _ = md._se2_form(K)
            scale = 10.0 ** rng.uniform(-1, 1)
            g = np.array([rng.uniform(-np.pi, np.pi), *(rng.normal(size=2) * scale)])
            W = lg.se2_matrix(g)
            rho = 1.0 + abs(g[1]) + abs(g[2])
            tol = 64 * np.finfo(float).eps * np.max(np.abs(K)) * rho * rho
            left = _se2_pair(K @ (W.T @ W - W))
            right = _se2_pair(W @ K @ W.T - W @ K)
            assert np.max(np.abs(left_grad(g) - left)) <= tol
            assert np.max(np.abs(np.array(right_grad(g, g.tolist())) - right)) <= tol


class TestCallableContract:
    @pytest.mark.parametrize("name", ALL)
    def test_float_arrays_of_the_documented_shapes(self, name):
        # sampled states and the acceptance trajectory, and their base
        # points for the distribution; an array that one call hands out
        # again (a constant H, zero row or basis) must be read-only
        p, traj = golden_run(name)
        n, k = p.n, p.k
        states = _samples(p, 50, seed=5) + _large_rotations(p) + traj.elements
        bases = [p.backend.target(g) for g in states]
        callables = [
            (p.phi, (k,), states),
            (p.phi_left_jac, (k, n), states),
            (p.phi_right_jac, (k, n), states),
            (p.left_grad, (n,), states),
            (p.right_grad, (n,), states),
            (p.mixed_hess, (n, n), states),
            (p.distribution.basis, (n, p.r), bases),
            (p.distribution.annihilator, (n, k), bases),
        ]
        for f, shape, points in callables:
            first = previous = f(points[0])
            for g in points:
                out = f(g)
                assert isinstance(out, np.ndarray)
                assert out.dtype == np.float64 and out.shape == shape
                if np.shares_memory(out, first) or np.shares_memory(out, previous):
                    assert not out.flags.writeable
                previous = out

    @pytest.mark.parametrize("name", ALL)
    def test_backend_maps_and_momentum_specs_return_float_arrays(self, name):
        # the step and the momentum pass use these as they are: source,
        # target, each part of mirror and retract, and each spec's parameter
        # and section at the target
        p, traj = golden_run(name)
        bk, u = p.backend, np.full(p.n, 1e-3)

        def parts(el):
            return el if isinstance(el, tuple) else (el,)

        for g in _samples(p, 20, seed=5) + traj.elements:
            x = bk.target(g)
            outs = [bk.source(g), x, *parts(bk.mirror(g)), *parts(bk.retract(g, u))]
            for spec in p.momentum_specs.values():
                xi = spec.xi_map(x)
                section = spec.section(xi, x)
                assert section.shape == (p.n,)
                outs += [xi, section]
            for out in outs:
                assert isinstance(out, np.ndarray) and out.dtype == np.float64


class TestDistributionAlgebra:
    @pytest.mark.parametrize("name", ALL)
    def test_basis_and_annihilator_at_many_points(self, name):
        p = md.FACTORIES[name]()
        pts = [p.backend.target(g) for g in _samples(p, 100, seed=9)]
        for x in pts:
            B = np.asarray(p.distribution.basis(x), dtype=float)
            A = np.asarray(p.distribution.annihilator(x), dtype=float)
            assert B.shape == (p.n, p.r)
            assert A.shape == (p.n, p.k)
            s = np.linalg.svd(B, compute_uv=False)
            assert s[-1] > 1e-10 * s[0]
            if p.k:
                assert np.max(np.abs(A.T @ B)) <= 1e-12 * (1 + np.max(np.abs(A)))
                full = np.linalg.svd(np.hstack([B, A]), compute_uv=False)
                assert full[-1] > 1e-10 * full[0]

    def test_complement_basis_keeps_the_numpy_formula(self):
        # the sphere's and Veselova's basis enters their residual rows, so its
        # floats are pinned to the formula written with numpy's norm, argmin
        # and column_stack
        def reference(v):
            vhat = v / np.linalg.norm(v)
            j = int(np.argmin(np.abs(vhat)))
            b1 = np.eye(3)[j] - vhat[j] * vhat
            b1 = b1 / np.linalg.norm(b1)
            return np.column_stack([b1, np.cross(vhat, b1)])

        rng = np.random.default_rng(12)
        for _ in range(5000):
            v = rng.normal(size=3) * 10.0 ** rng.uniform(-5, 5)
            B = md._complement_basis(v)
            assert np.array_equal(B, reference(v))
            assert B.flags.c_contiguous

    def test_complement_basis_is_the_numpy_form_bit_for_bit(self):
        # on Python floats but for numpy's two dot products: the same bits as
        # the numpy form, signed zeros included, over magnitudes 1e-150 to
        # 1e150, zero components, ties in |v_i| (the first index wins, as in
        # argmin) and axis vectors
        rng = np.random.default_rng(31)
        V = rng.normal(size=(100_000, 3)) * 10.0 ** rng.uniform(-150, 150, size=(100_000, 1))
        V[1::5, rng.integers(0, 3)] = 0.0
        V[2::5, 1] = V[2::5, 0]
        V[3::5, 2] = -V[3::5, 1]
        V[4::25, :] = np.eye(3)[rng.integers(0, 3, size=V[4::25].shape[0])] * rng.choice(
            [-1.0, 1.0, 1e-150, -1e150], size=(V[4::25].shape[0], 1))
        V[9::25, :] = V[9::25, :1]  # all three entries equal
        got = np.stack([md._complement_basis(v) for v in V])
        want = np.stack([complement_basis_oracle(v) for v in V])
        same = (got.view(np.int64) == want.view(np.int64)).all(axis=(1, 2))
        assert same.all(), V[~same][:5]
        assert md._complement_basis(V[0]).flags.c_contiguous

    @pytest.mark.parametrize("v", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-170] * 3,
                                   [np.inf, 1.0, 1.0], [1.0, -np.inf, 0.0], [np.nan, 0.0, 1.0]])
    def test_complement_basis_of_a_zero_or_non_finite_vector_is_nan(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert np.isnan(complement_basis_oracle(v)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            B = md._complement_basis(np.array(v))
        assert B.shape == (3, 2) and np.isnan(B).all()


class TestSuslov:
    @staticmethod
    def _component_rows(W1, W2, J):
        """The two componentwise difference equations, written as residuals
        (left column block minus right column block)."""
        r1 = (
            J[1, 2] * W1[2, 2] - J[2, 2] * W1[2, 1] + J[1, 1] * W1[1, 2]
            - J[1, 2] * W1[1, 1] + J[0, 1] * W1[0, 2] - J[0, 2] * W1[0, 1]
        ) - (
            -J[1, 2] * W2[2, 2] - J[1, 1] * W2[2, 1] - J[0, 1] * W2[2, 0]
            + J[2, 2] * W2[1, 2] + J[1, 2] * W2[1, 1] + J[0, 2] * W2[1, 0]
        )
        r2 = (
            -J[0, 2] * W1[2, 2] + J[2, 2] * W1[2, 0] - J[0, 1] * W1[1, 2]
            + J[1, 2] * W1[1, 0] - J[0, 0] * W1[0, 2] + J[0, 2] * W1[0, 0]
        ) - (
            J[0, 2] * W2[2, 2] + J[0, 1] * W2[2, 1] + J[0, 0] * W2[2, 0]
            - J[2, 2] * W2[0, 2] - J[1, 2] * W2[0, 1] - J[0, 2] * W2[0, 0]
        )
        return r1, r2

    def test_componentwise_rows_expand_the_trace_rows(self):
        J = ROTATED_J
        rng = np.random.default_rng(4)
        for _ in range(20):
            W1 = lg.so3_exp(rng.normal(size=3))
            W2 = lg.so3_exp(rng.normal(size=3))
            r1, r2 = self._component_rows(W1, W2, J)
            assert abs(r1 + np.trace((E1 @ W2 - W1 @ E1) @ J)) < 1e-13
            assert abs(r2 + np.trace((E2 @ W2 - W1 @ E2) @ J)) < 1e-13

    def test_constraint_is_the_symmetric_entry_condition(self):
        p = md.make_suslov()
        rng = np.random.default_rng(5)
        for _ in range(10):
            W = lg.so3_exp(rng.normal(size=3))
            phi = float(p.phi(W)[0])
            assert abs(np.trace(W @ E3) + phi) < 1e-14
            assert abs(phi - (W[1, 0] - W[0, 1])) < 1e-15

    def test_solved_pairs_satisfy_trace_and_component_rows(self):
        J = ROTATED_J
        p = md.make_suslov(J=J, h=0.05)
        traj = sv.evolve(p, p.initial_builder({"omega": [0.7, -0.4]}), 6)
        for W1, W2 in zip(traj.elements, traj.elements[1:]):
            assert abs(np.trace((E1 @ W2 - W1 @ E1) @ J)) < 1e-12
            assert abs(np.trace((E2 @ W2 - W1 @ E2) @ J)) < 1e-12
            r1, r2 = self._component_rows(W1, W2, J)
            assert abs(r1) < 1e-12 and abs(r2) < 1e-12
            assert abs(W1[0, 1] - W1[1, 0]) < 1e-12

    def test_diagonal_inertia_gives_relative_equilibrium(self):
        # with a trace-diagonal mass matrix the sampled body rate is already
        # stationary, so the mirror guess solves every step exactly
        p = md.make_suslov(h=0.05)
        traj = sv.evolve(p, p.initial_builder({"omega": [0.3, 0.2]}), 5)
        for res in traj.results:
            assert res.iterations == 0
        for W in traj.elements[1:]:
            assert element_gap(p.backend, W, traj.elements[0]) < 1e-12


class TestChaplyginSleigh:
    M, A, B, J = 1.0, 0.3, 0.2, 0.4

    def _rows(self, g1, g2):
        t1, x1, y1 = g1
        t2, x2, y2 = g2
        m, a, b = self.M, self.A, self.B
        K = a * a * m + b * b * m + self.J
        rowA = (
            -a * m * np.cos(t1) - b * m * np.sin(t1) + a * m
            + m * x1 * np.cos(t1) + m * y1 * np.sin(t1)
        ) - (m * x2 + a * m * np.cos(t2) - b * m * np.sin(t2) - a * m)
        rowB = (
            a * m * y1 * np.cos(t1) - a * m * x1 * np.sin(t1)
            - b * m * x1 * np.cos(t1) - b * m * y1 * np.sin(t1) + K * np.sin(t1)
        ) - (a * m * y2 - b * m * x2 + K * np.sin(t2))
        return rowA, rowB

    def test_solved_pairs_satisfy_difference_equations(self):
        p = md.make_chaplygin_sleigh(m=self.M, a=self.A, b=self.B, J=self.J)
        traj = sv.evolve(p, p.initial_builder({"xi": [0.45, 0.6]}), 6)
        for g1, g2 in zip(traj.elements, traj.elements[1:]):
            rowA, rowB = self._rows(g1, g2)
            assert abs(rowA) < 1e-9 and abs(rowB) < 1e-9

    def test_constraint_locus_in_doubled_angle_form(self):
        # (1 - cos t) x - y sin t factors through the implemented half-angle
        # constraint, so it vanishes on every sampled element
        p = md.make_chaplygin_sleigh()
        for g in _samples(p, 20, seed=12):
            t, x, y = g
            assert abs((1 - np.cos(t)) * x - y * np.sin(t)) < 1e-12

    def test_zero_rotation_branch_has_no_lateral_offset(self):
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [0.0, 0.8]})
        assert g[0] == 0.0
        assert abs(g[2]) < 1e-15

    def test_left_pairing_degenerates_exactly_at_known_offset(self):
        m, a = self.M, self.A
        p = md.make_chaplygin_sleigh(m=m, a=a, b=self.B, J=self.J)
        xstar = -2.0 * (a * a * m + self.J) / (a * m)
        bad = dg.regularity_report(p, np.array([0.0, xstar, 0.0]))
        good = dg.regularity_report(p, np.array([0.0, 1.0, 0.0]))
        assert not bad.left_nondegenerate
        assert good.left_nondegenerate and good.right_nondegenerate


class TestVeselova:
    INERTIA = np.diag([2.0, 3.0, 4.0])
    MGL = 1.0 * 9.81 * 0.3
    H = 0.05

    def test_axial_transport_identity(self):
        TF = 0.5 * np.trace(self.INERTIA) * np.eye(3) - self.INERTIA
        rng = np.random.default_rng(8)
        for _ in range(10):
            W = lg.so3_exp(rng.normal(size=3))
            lhs = lg.axial(TF @ W)
            rhs = W.T @ lg.axial(W @ TF)
            assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_momentum_update_with_gravity_torque_and_multiplier(self):
        TF = 0.5 * np.trace(self.INERTIA) * np.eye(3) - self.INERTIA
        p = md.make_veselova()
        gam = np.array([0.2, -0.3, 0.93])
        gam /= np.linalg.norm(gam)
        g0 = p.initial_builder({"gamma": gam, "omega": [0.9, -0.4, 0.2]})
        traj = sv.evolve(p, g0, 4)
        e_ax = np.array([0.0, 0.0, 1.0])
        h = self.H
        for g1, g2, res in zip(traj.elements, traj.elements[1:], traj.results):
            W1, W2 = g1[1], g2[1]
            gam2 = g2[0]
            T = lg.axial(W2 @ TF) - W1.T @ lg.axial(W1 @ TF)
            pred = self.MGL * h * h * np.cross(gam2, e_ax) - h * res.multipliers[0] * gam2
            assert np.max(np.abs(T - pred)) < 1e-12

    def test_half_turn_rotations_are_rejected(self):
        # trace -1 rotations sit outside the admissible chart window
        p = md.make_veselova()
        gam = np.array([0.0, 0.0, 1.0])
        W = lg.so3_exp(np.pi * np.array([1.0, 0.0, 0.0]))
        with pytest.raises(SingularError):
            sv.step(p, (gam, W))

    @staticmethod
    def _turned(angle):
        # on the constraint set: axial(W) lies along e1, orthogonal to gamma
        return np.array([0.0, 0.0, 1.0]), lg.so3_exp(angle * np.array([1.0, 0.0, 0.0]))

    def test_phi_refuses_the_half_turn_band(self):
        # |tr W + 1| < 1e-6 from pi - 1.41e-3 rad on; 2e-3 short of pi is outside
        p = md.make_veselova()
        for gap in (1e-3, 5e-4, 1e-5, 0.0):
            with pytest.raises(SingularError, match="rotation angle at pi"):
                p.phi(self._turned(np.pi - gap))
        assert p.phi(self._turned(np.pi - 2e-3)) == pytest.approx([0.0], abs=1e-15)

    def test_step_into_the_half_turn_band_is_refused_by_phi(self):
        # the action backend's first guess keeps W, so the step's first
        # residual meets the refusal
        p = md.make_veselova()
        with pytest.raises(SingularError, match="rotation angle at pi"):
            sv.step(p, self._turned(np.pi - 1e-5))

    def test_start_in_the_half_turn_band_fails_the_initial_check(self):
        p = md.make_veselova()
        g0 = self._turned(np.pi - 1e-5)
        with pytest.raises(SingularError, match="rotation angle at pi") as exc:
            sv.evolve(p, g0, 3)
        assert exc.value.step_index is None
        with pytest.raises(SingularError, match="rotation angle at pi"):
            p.assert_on_constraint(g0)
        with pytest.raises(SingularError, match="rotation angle at pi"):
            dg.reversibility_report(p, [g0])

    def test_step_within_the_cut_tolerance_of_pi_is_degenerate(self):
        # the regularity test at g runs before any phi call
        p = md.make_veselova()
        with pytest.raises(SingularError, match="two-point form degenerate"):
            sv.step(p, self._turned(np.pi - 1e-11))


class TestSamplers:
    """The ball's, the robot's and the sphere's samplers build each element
    from their draws directly, with the construction part of their initial
    builders and without the config checks."""

    BUILT = ["rolling_ball", "mobile_robot", "holonomic_sphere"]

    @staticmethod
    def _builder_route(p, rng, count):
        # the same draws, in the same order, sent through the config builder
        out = []
        for _ in range(count):
            if p.name == "rolling_ball":
                p0 = rng.normal(size=2)
                p1 = p0 + p.params["h"] * rng.normal(size=2) * 0.5
                cfg = {"xy0": p0, "xy1": p1, "spin": rng.normal() * 0.3}
            elif p.name == "mobile_robot":
                cfg = {"wheels0": rng.normal(size=2), "dphi": rng.normal() * 0.4,
                       "dpsi": rng.normal() * 0.4}
            else:
                q0 = rng.normal(size=3)
                cfg = {"q0": q0 / np.linalg.norm(q0), "velocity": rng.normal(size=3)}
            out.append(p.initial_builder(cfg))
        return out

    @pytest.mark.parametrize("name", BUILT)
    @pytest.mark.parametrize("seed", [0, 1, 5, 41])
    def test_samples_equal_the_builder_route_bit_for_bit(self, name, seed):
        p = md.FACTORIES[name]()
        sampled = p.sample_states(np.random.default_rng(seed), 20)
        built = self._builder_route(p, np.random.default_rng(seed), 20)
        for g, b in zip(sampled, built, strict=True):
            for part, expected in zip(g, b, strict=True):
                assert (part.dtype, part.shape) == (expected.dtype, expected.shape)
                assert part.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", BUILT)
    def test_sampling_checks_no_config_value(self, name, monkeypatch):
        p = md.FACTORIES[name]()
        calls = [0]
        monkeypatch.setattr(md, "number", counted(md.number, calls))
        p.sample_states(np.random.default_rng(0), 20)
        assert calls[0] == 0


class TestRollingBall:
    PARAMS = {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01}

    def _solved(self, n=6):
        p = md.make_rolling_ball()
        g0 = p.initial_builder({"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.3})
        return sv.evolve(p, g0, n)

    def test_five_equation_system_on_solved_pairs(self):
        m, r, I, Om, h = (self.PARAMS[k] for k in ("m", "r", "I", "Omega", "h"))
        traj = self._solved()
        for e1, e2 in zip(traj.elements, traj.elements[1:]):
            (x0, y0), (x1, y1), W1 = e1
            _, (x2, y2), W2 = e2
            assert abs(np.trace((W1 - W2) @ E3)) < 1e-12
            assert abs(r * m * (x2 - 2 * x1 + x0) / h**2
                       + I / (2 * h**2) * np.trace((W1 - W2) @ E2)) < 1e-10
            assert abs(r * m * (y2 - 2 * y1 + y0) / h**2
                       - I / (2 * h**2) * np.trace((W1 - W2) @ E1)) < 1e-10
            assert abs((x2 - x1) / h + r / (2 * h) * np.trace(W2 @ E2)
                       + Om * (y2 + y1) / 2) < 1e-12
            assert abs((y2 - y1) / h - r / (2 * h) * np.trace(W2 @ E1)
                       - Om * (x2 + x1) / 2) < 1e-12

    def test_eliminated_second_difference_form(self):
        m, r, I, Om, h = (self.PARAMS[k] for k in ("m", "r", "I", "Omega", "h"))
        al = I * Om / (I + m * r * r)
        traj = self._solved()
        for e1, e2 in zip(traj.elements, traj.elements[1:]):
            (x0, y0), (x1, y1), _ = e1
            _, (x2, y2), _ = e2
            assert abs((x2 - 2 * x1 + x0) / h**2 + al * (y2 - y0) / (2 * h)) < 1e-10
            assert abs((y2 - 2 * y1 + y0) / h**2 - al * (x2 - x0) / (2 * h)) < 1e-10

    def test_reference_path_increments_rotate_rigidly(self):
        pts = md.closed_form_ball(self.PARAMS, [0.99, 1.0], [1.0, 0.99], 50)
        u = np.diff(pts, axis=0)
        norms = np.linalg.norm(u, axis=1)
        assert np.max(np.abs(norms - norms[0])) < 1e-12 * norms[0]
        crosses = u[:-1, 0] * u[1:, 1] - u[:-1, 1] * u[1:, 0]
        dots = np.sum(u[:-1] * u[1:], axis=1)
        ang = np.arctan2(crosses, dots)
        assert np.max(np.abs(ang - ang[0])) < 1e-12

    def test_reference_path_of_zero_steps_is_its_start(self):
        pts = md.closed_form_ball(self.PARAMS, [0.99, 1.0], [1.0, 0.99], 0)
        assert pts.shape == (1, 2)
        assert np.array_equal(pts[0], [0.99, 1.0])

    def test_reference_path_is_straight_without_table_rotation(self):
        params = dict(self.PARAMS, Omega=0.0)
        pts = md.closed_form_ball(params, [0.0, 0.0], [0.01, -0.02], 40)
        u = np.diff(pts, axis=0)
        assert np.max(np.abs(u - u[0])) < 1e-15


class TestMobileRobot:
    def test_constraint_display_generic_branch(self):
        R, c = 0.1, 0.3
        p = md.make_mobile_robot()
        g0 = p.initial_builder({"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07})
        traj = sv.evolve(p, g0, 5)
        for e in traj.elements:
            (f0, s0), (f1, s1), om = e[0], e[1], e[2]
            df, ds = f1 - f0, s1 - s0
            half = (R / (2 * c)) * (df - ds)
            assert abs(om[0] + half) < 1e-12
            assert abs(om[1] + c * (df + ds) / (df - ds) * np.sin(half)) < 1e-12
            assert abs(om[2] - c * (df + ds) / (df - ds) * (1 - np.cos(half))) < 1e-12

    def test_constraint_display_straight_branch(self):
        R = 0.1
        p = md.make_mobile_robot()
        g0 = p.initial_builder({"wheels0": [0.1, 0.4], "dphi": 0.2, "dpsi": 0.2})
        traj = sv.evolve(p, g0, 4)
        for e in traj.elements:
            dphi = e[1][0] - e[0][0]
            assert abs(dphi - 0.2) < 1e-10
            assert abs(e[1][1] - e[0][1] - 0.2) < 1e-10
            assert abs(e[2][0]) < 1e-12
            assert abs(e[2][1] + R * dphi) < 1e-12
            assert abs(e[2][2]) < 1e-12

    def test_wheel_equations_with_offset_center_of_mass(self):
        Jb, J1, R, c, l, m0, m1 = 0.6, 0.2, 0.1, 0.3, 0.05, 1.0, 0.25
        m = m0 + 2 * m1
        p = md.make_mobile_robot(l=l)
        g0 = p.initial_builder({"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07})
        traj = sv.evolve(p, g0, 5)
        for e1, e2 in zip(traj.elements, traj.elements[1:]):
            (f1, s1), (f2, s2), om1 = e1
            _, (f3, s3), om2 = e2
            t1, x1, y1 = om1
            t2, x2, y2 = om2
            rhs1 = (
                l * R * m0 * (np.cos(t2) + np.cos(t1))
                + (Jb * R / c) * (np.sin(t2) - np.sin(t1))
                - (R * np.cos(t1) / c) * (l * m0 * y1 + c * m * x1)
                + (R * np.sin(t1) / c) * (l * m0 * x1 - c * m * y1)
                + (R / c) * (c * m * x2 + l * m0 * (y2 - 2 * c))
            )
            rhs2 = (
                l * R * m0 * (np.cos(t2) + np.cos(t1))
                - (Jb * R / c) * (np.sin(t2) - np.sin(t1))
                + (R * np.cos(t1) / c) * (l * m0 * y1 - c * m * x1)
                - (R * np.sin(t1) / c) * (l * m0 * x1 + c * m * y1)
                + (R / c) * (c * m * x2 - l * m0 * (y2 + 2 * c))
            )
            assert abs(2 * J1 * (f3 - 2 * f2 + f1) - rhs1) < 1e-10
            assert abs(2 * J1 * (s3 - 2 * s2 + s1) - rhs2) < 1e-10

    def test_parked_robot_stays_parked(self):
        p = md.make_mobile_robot()
        g0 = p.initial_builder({"wheels0": [0.7, 0.1], "dphi": 0.0, "dpsi": 0.0})
        traj = sv.evolve(p, g0, 3)
        for e in traj.elements:
            assert element_gap(p.backend, e, g0) < 1e-14


class TestHolonomicSphere:
    def test_initial_builder_stays_on_sphere(self):
        p = md.make_holonomic_sphere()
        g = p.initial_builder({"q0": [0.0, 0.0, 1.0], "velocity": [0.4, 0.1, 0.0]})
        assert abs(np.linalg.norm(g[1]) - 1.0) < 1e-14
        traj = sv.evolve(p, g, 20)
        for e in traj.elements:
            assert abs(np.linalg.norm(e[1]) - 1.0) < 1e-12

    def test_multiplier_covector_is_radial_at_matching_point(self):
        p = md.make_holonomic_sphere()
        g = p.initial_builder({"q0": [0.0, 0.0, 1.0], "velocity": [0.4, 0.1, 0.0]})
        res = sv.step(p, g)
        dc = del_covector(p, g, res.next)
        radial = np.cross(dc, res.next[0])
        assert np.linalg.norm(radial) <= 1e-9 * (1 + np.linalg.norm(dc))


class TestMomentumForm:
    # right-translated covector update: the incoming momentum of the second
    # element matches the first element's momentum transported by adjoint
    def test_suslov_adjoint_transport(self):
        p = md.make_suslov(h=0.05)
        traj = sv.evolve(p, p.initial_builder({"omega": [0.7, -0.4]}), 6)
        B = p.distribution.basis(None)
        for W1, W2 in zip(traj.elements, traj.elements[1:]):
            for a in range(2):
                xi = B[:, a]
                defect = p.right_grad(W2) @ xi - p.right_grad(W1) @ (W1 @ xi)
                assert abs(defect) < 1e-9

    def test_sleigh_adjoint_transport(self):
        p = md.make_chaplygin_sleigh()
        traj = sv.evolve(p, p.initial_builder({"xi": [0.45, 0.6]}), 6)
        B = p.distribution.basis(None)
        for g1, g2 in zip(traj.elements, traj.elements[1:]):
            for a in range(2):
                xi = B[:, a]
                defect = p.right_grad(g2) @ xi - p.right_grad(g1) @ se2_Ad(g1, xi)
                assert abs(defect) < 1e-9

    def test_full_transport_defect_reproduces_multipliers(self):
        p = md.make_suslov(h=0.05)
        g1 = p.initial_builder({"omega": [0.7, -0.4]})
        res = sv.step(p, g1)
        W2 = res.next
        A = p.distribution.annihilator(None)
        defect = p.right_grad(W2) - p.right_grad(g1) @ g1  # along each e_j
        lam, *_ = np.linalg.lstsq(A, -defect, rcond=None)
        assert np.allclose(lam, res.multipliers, atol=1e-9)


class TestConfigValidation:
    @pytest.mark.parametrize("name", ALL)
    def test_unknown_initial_key_rejected(self, name):
        p = md.FACTORIES[name]()
        with pytest.raises(ConfigError):
            p.initial_builder({"bogus": 1.0})

    def test_wrong_shapes_rejected(self):
        p = md.make_constrained_particle()
        with pytest.raises(ConfigError):
            p.initial_builder({"q0": [0.0, 1.0], "velocity": [1.0, 0.0]})
        with pytest.raises(ConfigError):
            p.initial_builder({"q0": [0.0, 1.0, 0.0], "velocity": [1.0, 0.0, 0.0]})

    @pytest.mark.parametrize(
        "val, shape, positive, match",
        [
            (True, (), False, "a number"),
            ("0.5", (), False, "a number"),
            ([0.5], (), False, "a number"),
            ([1.0, True, 2.0], 3, False, "a list of 3 numbers"),
            ([[1.0, 2.0], [3.0]], None, False, "numeric"),
            (10**400, (), False, "finite"),
            ([1.0, float("inf")], 2, False, "finite"),
            (0, (), True, "positive"),
        ],
    )
    def test_number_is_strict(self, val, shape, positive, match):
        with pytest.raises(ConfigError, match=match):
            md.number(val, "x", shape, positive=positive)

    def test_large_body_rate_with_a_finite_square_is_unchanged(self):
        # the h omega overflow check refuses only what so3_exp fails on; a
        # large rate below it, or one along gamma, builds as before
        p, h = md.make_suslov(), 0.05
        W = p.initial_builder({"omega": [1e150, -3.0]})
        assert np.array_equal(W, lg.so3_exp(h * np.array([1e150, -3.0, 0.0])))
        gam, W = md.make_veselova().initial_builder({"gamma": [1, 0, 0], "omega": [1e200, 0, 0]})
        assert np.array_equal(W, np.eye(3))

    def test_number_accepts_numpy_and_python_reals(self):
        assert md.number(np.int64(2), "x") == 2.0
        got = md.number([1, np.float64(0.5), 2.0], "x", 3, positive=True)
        assert got.dtype == float and np.array_equal(got, [1.0, 0.5, 2.0])

    @pytest.mark.parametrize(
        "name, pins",
        [
            ("constrained_particle", {"y0": lambda g: g[0][1], "x1": lambda g: g[1][0]}),
            ("holonomic_sphere", {"z0": lambda g: g[0][2], "y1": lambda g: g[1][1]}),
            ("suslov", {"R12": lambda W: W[0, 1], "R31": lambda W: W[2, 0]}),
            ("chaplygin_sleigh", {"theta": lambda g: g[0], "y": lambda g: g[2]}),
            ("veselova", {"g1": lambda el: el[0][0], "R23": lambda el: el[1][1, 2]}),
            ("rolling_ball", {"y1": lambda el: el[1][1], "R32": lambda el: el[2][2, 1]}),
            ("mobile_robot", {"psi1": lambda el: el[1][1], "x": lambda el: el[2][1]}),
        ],
    )
    def test_row_cells_follow_coord_names(self, name, pins):
        p = md.FACTORIES[name]()
        g = _samples(p, 1, seed=3)[0]
        row = dict(zip(p.coord_names, p.to_row(g)))
        for coord, part in pins.items():
            assert row[coord] == part(g)

    @pytest.mark.parametrize("name", ALL)
    def test_row_layout_consistent(self, name):
        p = md.FACTORIES[name]()
        g = _samples(p, 1, seed=3)[0]
        row = p.to_row(g)
        assert len(row) == len(p.coord_names)
        assert len(set(p.coord_names)) == len(p.coord_names)
        assert all(np.isfinite(row))

    @pytest.mark.parametrize("name", ALL)
    def test_rows_stack_the_single_rows(self, name):
        # bare-array elements (Suslov's SO(3), the sleigh's SE(2) triple)
        # and tuples of parts stack alike
        p = md.FACTORIES[name]()
        elements = _samples(p, 5, seed=3)
        rows = p.to_rows(elements)
        assert np.array_equal(rows, np.array([p.to_row(g) for g in elements]))
        assert np.array_equal(rows, np.array([row_oracle(g) for g in elements]))
