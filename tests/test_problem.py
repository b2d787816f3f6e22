"""Problem-layer tests: DEL residual assembly, multipliers, regularity."""

import dataclasses

import numpy as np
import pytest
from conftest import del_covector, particle_oracle

import nhmech.groupoid as gp
import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import ConstraintViolationError, RankDeficientAnnihilator
from nhmech.problem import ConstraintSet, Distribution, Lagrangian, NhProblem


FROZEN_Q0 = np.array([0.2, -0.4, 0.1])
FROZEN_Q1 = np.array([0.25, -0.35, 0.08125000000000002])
FROZEN_Q2 = np.array([0.3007856341189674, -0.29999999999999993, 0.06474466891133561])


def residual_in_chart(p, g, u, center):
    """The step residual as a function of fiber-chart coordinates u around
    ``center``."""
    return pb.residual_at(p, g, p.backend.retract(center, np.asarray(u, dtype=float)))


def test_oracle_matches_frozen_values():
    assert np.allclose(particle_oracle(FROZEN_Q0, FROZEN_Q1), FROZEN_Q2, atol=1e-15)


def _free_problem(dim=2):
    """Unconstrained free particle on the pair groupoid (codim 0)."""
    h = 0.1
    bk = gp.PairGroupoid(dim)
    lag = Lagrangian(
        eval=lambda g: float((g[1] - g[0]) @ (g[1] - g[0])) / (2 * h * h),
        left_grad=lambda g: (g[1] - g[0]) / (h * h),
        right_grad=lambda g: (g[1] - g[0]) / (h * h),
    )
    return NhProblem(
        name="free",
        backend=bk,
        lagrangian=lag,
        constraints=ConstraintSet(
            codim=0,
            phi=lambda g: np.zeros(0),
            left_jac=lambda g: np.zeros((0, dim)),
            right_jac=lambda g: np.zeros((0, dim)),
        ),
        distribution=Distribution(
            basis=lambda x: np.eye(dim),
            annihilator=lambda x: np.zeros((dim, 0)),
        ),
    )


class TestResidual:
    def test_particle_residual_zero_at_oracle_solution(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        h_el = (FROZEN_Q1, FROZEN_Q2)
        r = pb.residual_at(p, g, h_el)
        assert np.max(np.abs(r)) < 1e-10

    def test_particle_del_rows_are_difference_equations(self):
        # the two projected rows must equal the second-difference forms
        p = md.make_constrained_particle(h=0.01)
        h = p.params["h"]
        g = (FROZEN_Q0, FROZEN_Q1)
        rng = np.random.default_rng(11)
        q2 = FROZEN_Q2 + 0.01 * rng.normal(size=3)  # off the solution on purpose
        rows = pb.residual_at(p, g, (FROZEN_Q1, q2))[: p.r]
        x0, y0, z0 = FROZEN_Q0
        x1, y1, z1 = FROZEN_Q1
        x2, y2, z2 = q2
        eq1 = (x2 - 2 * x1 + x0) / h**2 + y1 * (z2 - 2 * z1 + z0) / h**2
        eq2 = (y2 - 2 * y1 + y0) / h**2
        assert np.allclose(rows, [-eq1, -eq2], rtol=1e-9)

    def test_residual_constraint_rows_are_phi_at_center(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        center = p.backend.retract(
            p.backend.identity(p.backend.target(g)), np.array([0.3, 0.1, 0.2])
        )
        r = residual_in_chart(p, g, np.zeros(3), center)
        assert r[2] == pytest.approx(p.phi(center)[0], abs=0.0)

    def test_constant_lagrangian_gives_zero_del(self):
        p = md.make_constrained_particle(h=0.01)
        flat = NhProblem(
            name="flat",
            backend=p.backend,
            lagrangian=Lagrangian(eval=lambda g: 1.0),
            constraints=p.constraints,
            distribution=p.distribution,
        )
        g = (FROZEN_Q0, FROZEN_Q1)
        assert np.max(np.abs(pb.residual_at(flat, g, (FROZEN_Q1, FROZEN_Q2))[: flat.r])) < 1e-9

    def test_non_solution_residual_matches_action_variation(self):
        # two-term action sum differentiated along a constraint direction
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        q2 = FROZEN_Q2 + np.array([0.01, -0.02, 0.015])
        h_el = (FROZEN_Q1, q2)
        rows = pb.residual_at(p, g, h_el)[: p.r]
        basis = p.distribution.basis(p.backend.target(g))
        t = 1e-6
        for a in range(p.r):
            v = basis[:, a]
            plus = p.lagrangian.eval((FROZEN_Q0, FROZEN_Q1 + t * v)) + p.lagrangian.eval(
                (FROZEN_Q1 + t * v, q2)
            )
            minus = p.lagrangian.eval((FROZEN_Q0, FROZEN_Q1 - t * v)) + p.lagrangian.eval(
                (FROZEN_Q1 - t * v, q2)
            )
            assert rows[a] == pytest.approx((plus - minus) / (2 * t), rel=1e-5)

    def test_del_projected_covariant_under_basis_change(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        h_el = (FROZEN_Q1, FROZEN_Q2 + np.array([0.02, 0.01, -0.03]))
        rows = pb.residual_at(p, g, h_el)[: p.r]
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = rng.normal(size=(2, 2))
            if abs(np.linalg.det(A)) < 0.1:
                continue
            mixed = NhProblem(
                name="mixed",
                backend=p.backend,
                lagrangian=p.lagrangian,
                constraints=p.constraints,
                distribution=Distribution(
                    basis=lambda x, A=A: p.distribution.basis(x) @ A,
                    annihilator=p.distribution.annihilator,
                ),
            )
            assert np.allclose(pb.residual_at(mixed, g, h_el)[: mixed.r], A.T @ rows, rtol=1e-9)


class TestJacobian:
    def test_fd_jacobian_matches_columns(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        center = p.backend.identity(p.backend.target(g))
        J = pb.newton_jacobian_fd(p, g, center)
        u = np.zeros(3)
        t = 1e-7
        for j in range(3):
            e = np.zeros(3)
            e[j] = t
            plus = residual_in_chart(p, g, u + e, center)
            minus = residual_in_chart(p, g, u - e, center)
            col = (plus - minus) / (2 * t)
            assert np.allclose(J[:, j], col, rtol=1e-5, atol=1e-4)

    def test_jacobian_condition_blows_up_at_degenerate_candidate(self):
        # candidate (qa, qb) with 2 + ya^2 + ya*yb = 0 makes the system matrix
        # singular; here ya = 1, yb = -3
        p = md.make_constrained_particle(h=0.01)
        ya, yb = 1.0, -3.0
        qa = np.array([0.0, ya, 0.0])
        g = (np.array([-0.5, ya, -0.5]), qa)  # phi(g) = 0
        assert abs(p.phi(g)[0]) < 1e-12
        u = np.array([0.3, yb - ya, 0.7])
        center = p.backend.retract(p.backend.identity(qa), u)
        J = pb.newton_jacobian_fd(p, g, center=center)
        assert np.linalg.cond(J) > 1e12

    def test_jacobian_regular_at_ordinary_candidate(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        center = p.backend.identity(p.backend.target(g))
        assert np.linalg.cond(pb.newton_jacobian_fd(p, g, center)) < 1e6


class TestMultipliers:
    def test_unconstrained_multipliers_empty(self):
        p = _free_problem()
        g = (np.zeros(2), np.array([0.1, 0.2]))
        h_el = (np.array([0.1, 0.2]), np.array([0.2, 0.4]))
        lam, fit = pb.lagrange_multipliers(p, g, h_el)
        assert lam.shape == (0,)
        assert fit < 1e-12

    def test_particle_multiplier_reconstructs_covector(self):
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, FROZEN_Q1)
        h_el = (FROZEN_Q1, FROZEN_Q2)
        lam, fit = pb.lagrange_multipliers(p, g, h_el)
        assert fit < 1e-8
        cov = del_covector(p, g, h_el)
        ann = p.distribution.annihilator(p.backend.target(g))
        assert np.allclose(cov, ann @ lam, atol=1e-8)
        # re-projecting the reconstructed covector onto the distribution: zero
        basis = p.distribution.basis(p.backend.target(g))
        assert np.max(np.abs(basis.T @ (cov - ann @ lam))) < 1e-8

    def test_rank_deficient_annihilator_raises(self):
        p = md.make_constrained_particle(h=0.01)
        broken = NhProblem(
            name="broken",
            backend=p.backend,
            lagrangian=p.lagrangian,
            constraints=p.constraints,
            distribution=Distribution(
                basis=p.distribution.basis,
                annihilator=lambda x: np.column_stack(
                    [p.distribution.annihilator(x)] * 2
                ),
            ),
        )
        with pytest.raises(RankDeficientAnnihilator):
            pb.lagrange_multipliers(broken, (FROZEN_Q0, FROZEN_Q1), (FROZEN_Q1, FROZEN_Q2))


class TestRegularity:
    def test_kernel_sigmas_square(self):
        M = np.diag([3.0, 1.0])
        smin, smax = pb.kernel_sigmas(M, 2)
        assert smin == pytest.approx(1.0)
        assert smax == pytest.approx(3.0)

    def test_kernel_sigmas_tall_counts_rank(self):
        M = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        smin, _ = pb.kernel_sigmas(M, 2)
        assert smin > 0.5

    def test_kernel_sigmas_short_is_degenerate(self):
        smin, _ = pb.kernel_sigmas(np.ones((1, 3)), 2)
        assert smin == 0.0

    def test_particle_right_degeneracy_locus(self):
        p = md.make_constrained_particle(h=0.01)
        # right-degenerate: 2 + y1^2 + y1*y0 = 0 with y1 = 1, y0 = -3
        q0 = np.array([0.0, -3.0, 0.0])
        q1 = np.array([1.0, 1.0, -1.0])  # z1 - z0 = (y1+y0)/2 (x1-x0) = -1
        g = (q0, q1)
        assert abs(p.phi(g)[0]) < 1e-12
        (_, _), (rmin, rmax) = sv.point_regularity_sigmas(p, g)
        assert rmin <= sv.REGULARITY_RTOL * rmax
        # generic element: both sides fine
        g2 = (FROZEN_Q0, FROZEN_Q1)
        (lmin, lmax), (rmin2, rmax2) = sv.point_regularity_sigmas(p, g2)
        assert lmin > 1e-6 * lmax
        assert rmin2 > 1e-6 * rmax2

    def test_particle_left_degeneracy_locus(self):
        p = md.make_constrained_particle(h=0.01)
        # left-degenerate: 2 + y0^2 + y0*y1 = 0 with y0 = 1, y1 = -3
        q0 = np.array([0.0, 1.0, 0.0])
        q1 = np.array([1.0, -3.0, -1.0])
        g = (q0, q1)
        assert abs(p.phi(g)[0]) < 1e-12
        (lmin, lmax), _ = sv.point_regularity_sigmas(p, g)
        assert lmin <= sv.REGULARITY_RTOL * lmax

    def test_regularity_matrix_shapes(self):
        p = md.make_constrained_particle(h=0.01)
        GL, GR = pb.regularity_matrices(p, (FROZEN_Q0, FROZEN_Q1))
        assert GL.shape == (2, 2)
        assert GR.shape == (2, 2)

    def test_sphere_right_matrix_is_rectangular_but_full_rank(self):
        p = md.make_holonomic_sphere(h=0.01)
        g = p.initial_builder({"q0": [1.0, 0.0, 0.0], "velocity": [0.0, 1.0, 0.0]})
        GL, GR = pb.regularity_matrices(p, g)
        assert GL.shape == (2, 2)
        assert GR.shape == (3, 2)
        smin, smax = pb.kernel_sigmas(GR, p.r)
        assert smin > 1e-6 * smax


class TestConstraintAssertion:
    def test_on_constraint_passes(self):
        p = md.make_constrained_particle(h=0.01)
        p.assert_on_constraint((FROZEN_Q0, FROZEN_Q1))

    def test_off_constraint_raises(self):
        p = md.make_constrained_particle(h=0.01)
        with pytest.raises(ConstraintViolationError):
            p.assert_on_constraint((FROZEN_Q0, FROZEN_Q1 + np.array([0, 0, 0.1])))

    def test_nan_constraint_value_raises(self):
        # NaN > tol is False: a NaN |phi| must not pass as on the constraint
        p = md.make_constrained_particle(h=0.01)
        g = (FROZEN_Q0, np.array([np.nan, 0.0, 0.0]))
        assert np.isnan(p.phi(g)).all()
        with pytest.raises(ConstraintViolationError, match=r"\|phi\| = nan"):
            p.assert_on_constraint(g)


class TestBoundDerivatives:
    """A problem binds its chart derivatives once, when it is built."""

    NAMES = ("left_grad", "right_grad", "mixed_hess", "phi_left_jac", "phi_right_jac")

    def test_model_callables_are_bound_as_given(self):
        p = md.make_rolling_ball()
        lag, con = p.lagrangian, p.constraints
        given = (lag.left_grad, lag.right_grad, lag.mixed_hess, con.left_jac, con.right_jac)
        for name, fn in zip(self.NAMES, given):
            assert getattr(p, name) is fn

    def test_replace_binds_the_differences_again(self):
        p = md.make_suslov()
        g = p.sample_states(np.random.default_rng(4), 1)[0]
        exact_grads = dataclasses.replace(
            p, lagrangian=dataclasses.replace(p.lagrangian, mixed_hess=None)
        )
        bare = dataclasses.replace(
            p,
            lagrangian=Lagrangian(eval=p.lagrangian.eval),
            constraints=ConstraintSet(codim=p.k, phi=p.constraints.phi),
        )
        assert exact_grads.mixed_hess.keywords == {"step": gp.FD_STEP}
        assert bare.mixed_hess.keywords == {"step": gp.FD_STEP_OUTER}
        for name in self.NAMES:
            assert np.allclose(getattr(bare, name)(g), getattr(p, name)(g), atol=1e-5)
        assert np.array_equal(exact_grads.mixed_hess(g),
                              gp.left_jacobian(p.backend, p.right_grad, g))
