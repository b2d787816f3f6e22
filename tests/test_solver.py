"""Solver tests: steps against hand oracles, failure modes, Legendre maps."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from conftest import counted, del_covector, newton_tail_is_quadratic, particle_oracle
from scipy.linalg import lapack
from test_golden import STARTS
from test_models import ROTATED_J

import nhmech.groupoid as gpd
import nhmech.liegroup as lg
import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import (
    ChartDomainError,
    ConstraintViolationError,
    NoConvergenceError,
    SingularError,
)

Q0 = np.array([0.2, -0.4, 0.1])
Q1 = np.array([0.25, -0.35, 0.08125000000000002])


def _particle_pair():
    p = md.make_constrained_particle(h=0.01)
    return p, p.initial_builder({"q0": Q0, "q1": Q1})


def _sleigh_with_bad_hess(first_bad_call, factor):
    """The sleigh with H multiplied by ``factor`` from its ``first_bad_call``-th
    call on; returns the problem and its running call count."""
    p = md.make_chaplygin_sleigh()
    lag = p.lagrangian
    calls = [0]

    def hess(g):
        calls[0] += 1
        return lag.mixed_hess(g) * (factor if calls[0] >= first_bad_call else 1.0)

    return dataclasses.replace(p, lagrangian=dataclasses.replace(lag, mixed_hess=hess)), calls


class TestStep:
    def test_matches_elimination_oracle(self):
        p, g = _particle_pair()
        res = sv.step(p, g)
        assert np.array_equal(res.next[0], Q1)
        assert np.allclose(res.next[1], particle_oracle(Q0, Q1), atol=1e-12)
        assert res.residual_norm <= sv.SolverOptions().tol_residual

    def test_every_step_matches_oracle_from_solved_pair(self):
        p, g = _particle_pair()
        traj = sv.evolve(p, g, 25)
        for e, nxt in zip(traj.elements, traj.elements[1:]):
            assert np.allclose(nxt[1], particle_oracle(e[0], e[1]), atol=1e-11)

    def test_ball_follows_closed_form(self):
        p = md.make_rolling_ball()
        g0 = p.initial_builder({"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.4})
        traj = sv.evolve(p, g0, 10)
        pts = md.closed_form_ball(
            {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01},
            [0.99, 1.0],
            [1.0, 0.99],
            11,
        )
        got = np.vstack([traj.elements[0][0]] + [e[1] for e in traj.elements])
        assert np.max(np.abs(got - pts)) < 1e-10

    def test_multipliers_reported_consistently(self):
        p, g = _particle_pair()
        res = sv.step(p, g)
        lam, _ = pb.lagrange_multipliers(p, g, res.next)
        assert res.multipliers.shape == (1,)
        assert np.array_equal(res.multipliers, lam)

    def test_history_bookkeeping(self):
        p, g = _particle_pair()
        res = sv.step(p, g)
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] == res.residual_norm
        assert res.residual_history[0] > res.residual_norm


class TestDeterminism:
    def test_re_solve_is_bit_identical(self):
        p, g = _particle_pair()
        t1 = sv.evolve(p, g, 2)
        t2 = sv.evolve(p, g, 2)
        assert np.array_equal(t1.elements[-1][1], t2.elements[-1][1])
        assert t1.results[-1].iterations == t2.results[-1].iterations


class TestFailureModes:
    def test_singular_at_degenerate_start(self):
        # on-constraint element whose target-side pairing drops rank
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.0, -3.0, 0.0], "q1": [1.0, 1.0, -1.0]})
        with pytest.raises(SingularError, match="degenerate"):
            sv.step(p, g)

    def test_singular_step_index_through_evolve(self):
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.0, -3.0, 0.0], "q1": [1.0, 1.0, -1.0]})
        with pytest.raises(SingularError) as exc:
            sv.evolve(p, g, 3)
        assert exc.value.step_index == 0

    def test_tiny_cond_limit_trips(self):
        p, g = _particle_pair()
        with pytest.raises(SingularError, match="condition"):
            sv.step(p, g, sv.SolverOptions(cond_limit=1.0))

    def test_no_convergence_reports_iterations(self):
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [0.7, 0.9]})
        with pytest.raises(NoConvergenceError) as exc:
            sv.step(p, g, sv.SolverOptions(max_iters=1))
        assert exc.value.iterations == 1
        assert exc.value.residual_norm > 0

    def test_domain_guard_error_carries_step_index(self):
        def guard(g):
            if g[1][0] > 0.25:
                raise ChartDomainError("left the test window")

        p = dataclasses.replace(md.make_constrained_particle(h=0.01), domain_guard=guard)
        g0 = p.initial_builder({"q0": [0.0, 0.0, 0.0], "q1": [0.1, 0.0, 0.0]})
        with pytest.raises(ChartDomainError) as exc:
            sv.evolve(p, g0, 5)
        assert exc.value.step_index == 1

    def test_sleigh_line_search_stall_is_no_convergence_with_step_index(self):
        # a genuine failure: step 0 turns the sleigh to 1.036 rad/step, and
        # step 1's only root in (-pi, pi] lies past the chart cut from the
        # first guess, so at the tenth Newton iteration the full step and
        # all its halvings fail the Armijo test
        p = md.make_chaplygin_sleigh()
        g0 = p.sample_states(np.random.default_rng(13), 30)[0]
        with pytest.raises(NoConvergenceError, match="line search stalled") as exc:
            sv.evolve(p, g0, 200)
        assert exc.value.step_index == 1
        assert exc.value.iterations == 10

    def test_sleigh_at_the_chart_cut_is_a_chart_domain_error(self):
        # a step rotation within 1e-10 of pi has no principal log, so the
        # first guess that repeats it is refused rather than taken on a
        # wrong branch
        p = md.make_chaplygin_sleigh()
        g0 = p.initial_builder({"xi": [np.pi - 5e-11, 0.9]})
        assert abs(g0[0]) > np.pi - 1e-10
        with pytest.raises(ChartDomainError) as exc:
            sv.evolve(p, g0, 3)
        assert exc.value.step_index == 0

    @pytest.mark.parametrize(
        "offset,where", [(1, "two-point pairing"), (2, "Newton matrix")], ids=["pairing", "newton"]
    )
    def test_non_finite_H_is_singular_with_step_index(self, offset, where):
        # H turns NaN at the regularity test of step 2 (offset 1) or at the
        # next H call after it (offset 2): the Newton matrix of that step's
        # second iteration, as the first reuses the regularity test's H
        p, calls = _sleigh_with_bad_hess(np.inf, np.nan)
        g0 = p.initial_builder({"xi": [0.7, 0.9]})
        sv.evolve(p, g0, 2)
        p, _ = _sleigh_with_bad_hess(calls[0] + offset, np.nan)
        with pytest.raises(SingularError, match=where) as exc:
            sv.evolve(p, g0, 4)
        assert exc.value.step_index == 2

    def test_non_finite_first_residual_is_singular_error(self):
        # NaN > tol is False, so a NaN residual must not read as converged
        p = md.make_chaplygin_sleigh()
        lag = p.lagrangian
        nan_right = dataclasses.replace(lag, right_grad=lambda g: lag.right_grad(g) * np.nan)
        q = dataclasses.replace(p, lagrangian=nan_right)
        with pytest.raises(SingularError, match="residual"):
            sv.step(q, q.initial_builder({"xi": [0.7, 0.9]}))

    def test_evolve_rejects_off_constraint_start(self):
        p = md.make_constrained_particle(h=0.01)
        g0 = (np.zeros(3), np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ConstraintViolationError, match="initial element"):
            sv.evolve(p, g0, 1)


class TestNewtonTail:
    def test_sleigh_tail_contracts_quadratically(self):
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [0.7, 0.9]})
        res = sv.step(p, g, sv.SolverOptions(tol_residual=1e-13))
        assert newton_tail_is_quadratic(res.residual_history)

    def test_veselova_tail_contracts_quadratically(self):
        p = md.make_veselova()
        g = p.initial_builder({"gamma": [0.0, 0.0, 1.0], "omega": [0.9, -0.4, 0.0]})
        res = sv.step(p, g, sv.SolverOptions(tol_residual=1e-13))
        assert newton_tail_is_quadratic(res.residual_history)


IDENTITY_STARTS = [
    ("particle", lambda: md.make_constrained_particle(h=0.01), {"q0": [0.2, -0.4, 0.1], "q1": [0.2, -0.4, 0.1]}),
    ("sphere", lambda: md.make_holonomic_sphere(h=0.01), {"q0": [0.0, 0.0, 1.0], "q1": [0.0, 0.0, 1.0]}),
    ("suslov", lambda: md.make_suslov(h=0.01), {"omega": [0.0, 0.0]}),
    ("sleigh", lambda: md.make_chaplygin_sleigh(), {"xi": [0.0, 0.0]}),
    ("robot", lambda: md.make_mobile_robot(h=0.01), {"wheels0": [0.3, -0.2], "dphi": 0.0, "dpsi": 0.0}),
    ("ball", lambda: md.make_rolling_ball(h=0.01), {"xy0": [0.0, 0.0], "xy1": [0.0, 0.0], "spin": 0.0}),
]


@pytest.mark.parametrize("name,factory,init", IDENTITY_STARTS, ids=[t[0] for t in IDENTITY_STARTS])
def test_identity_start_converges_within_five_iterations(name, factory, init):
    p = factory()
    res = sv.step(p, p.initial_builder(init))
    assert res.iterations <= 5


class TestLegendre:
    def test_pair_incoming_matches_fd_oracle(self):
        p, g = _particle_pair()
        cov = sv.legendre_minus(p, g)
        B = p.distribution.basis(Q0)
        t = 1e-6
        for a in range(2):
            v = B[:, a]
            f = lambda s: p.lagrangian.eval((Q0 - s * v, Q1))
            fd = (f(t) - f(-t)) / (2 * t)
            assert abs(cov.components[a] - fd) < 1e-6 * (1 + abs(fd))
        assert np.array_equal(cov.base, Q0)

    def test_pair_outgoing_matches_fd_oracle(self):
        p, g = _particle_pair()
        cov = sv.legendre_plus(p, g)
        B = p.distribution.basis(Q1)
        t = 1e-6
        for a in range(2):
            v = B[:, a]
            f = lambda s: p.lagrangian.eval((Q0, Q1 + s * v))
            fd = (f(t) - f(-t)) / (2 * t)
            assert abs(cov.components[a] - fd) < 1e-6 * (1 + abs(fd))
        assert np.array_equal(cov.base, Q1)

    def test_group_momenta_match_translation_oracles(self):
        J = lg.so3_exp(np.array([0.2, 0.3, 0.1]))
        Jm = J @ np.diag([1.0, 2.0, 3.0]) @ J.T
        p = md.make_suslov(J=Jm, h=0.05)
        W = p.initial_builder({"omega": [0.7, -0.4]})
        x = p.backend.source(W)
        B = p.distribution.basis(x)
        minus = sv.legendre_minus(p, W)
        plus = sv.legendre_plus(p, W)
        t = 1e-6
        for a in range(2):
            v = B[:, a]
            fd_minus = (
                p.lagrangian.eval(lg.so3_exp(t * v) @ W)
                - p.lagrangian.eval(lg.so3_exp(-t * v) @ W)
            ) / (2 * t)
            fd_plus = (
                p.lagrangian.eval(W @ lg.so3_exp(t * v))
                - p.lagrangian.eval(W @ lg.so3_exp(-t * v))
            ) / (2 * t)
            assert abs(minus.components[a] - fd_minus) < 1e-6 * (1 + abs(fd_minus))
            assert abs(plus.components[a] - fd_plus) < 1e-6 * (1 + abs(fd_plus))

    def test_constant_lagrangian_gives_zero_covector(self):
        p, g = _particle_pair()
        flat = dataclasses.replace(p, lagrangian=pb.Lagrangian(eval=lambda g: 3.7))
        assert np.all(sv.legendre_minus(flat, g).components == 0.0)
        assert np.all(sv.legendre_plus(flat, g).components == 0.0)

    @pytest.mark.parametrize("system", ["particle", "suslov"])
    def test_outgoing_matches_next_incoming_along_trajectory(self, system):
        if system == "particle":
            p, g0 = _particle_pair()
        else:
            J = lg.so3_exp(np.array([0.2, 0.3, 0.1]))
            p = md.make_suslov(J=J @ np.diag([1.0, 2.0, 3.0]) @ J.T, h=0.05)
            g0 = p.initial_builder({"omega": [0.7, -0.4]})
        traj = sv.evolve(p, g0, 20)
        tol = sv.SolverOptions().tol_residual
        bk = p.backend
        for g, h in zip(traj.elements, traj.elements[1:]):
            out = sv.legendre_plus(p, g)
            inc = sv.legendre_minus(p, h)
            assert np.max(np.abs(out.components - inc.components)) <= 10 * tol
            assert np.array_equal(out.base, np.asarray(bk.target(g), dtype=float))
            assert np.array_equal(inc.base, np.asarray(bk.source(h), dtype=float))

    def test_reversible_systems_pair_the_two_transforms(self):
        # incoming momentum of h equals the negated outgoing momentum of its
        # inverse whenever the action is inversion invariant
        cases = []
        p, g = _particle_pair()
        cases.append((p, g))
        ps = md.make_suslov(h=0.05)
        cases.append((ps, ps.initial_builder({"omega": [0.7, -0.4]})))
        pc = md.make_chaplygin_sleigh()
        cases.append((pc, pc.initial_builder({"xi": [0.4, 0.6]})))
        for p, h in cases:
            minus = sv.legendre_minus(p, h)
            plusinv = sv.legendre_plus(p, p.backend.invert(h))
            assert np.allclose(minus.components, -plusinv.components, atol=1e-10)
            assert np.allclose(minus.base, plusinv.base, atol=1e-15)

    def test_outgoing_momentum_of_the_solved_element(self):
        # a step in momentum form: the covector leaving the solved element
        # sits at its target, with components left_grad @ basis there
        p, g = _particle_pair()
        res = sv.step(p, g)
        out = sv.legendre_plus(p, res.next)
        assert np.array_equal(out.base, res.next[1])
        basis = p.distribution.basis(res.next[1])
        assert np.array_equal(out.components, p.left_grad(res.next) @ basis)


class TestTrajectory:
    def test_container_shapes_and_chaining(self):
        p, g0 = _particle_pair()
        traj = sv.evolve(p, g0, 6)
        assert len(traj) == 7
        assert traj.n_steps == 6
        assert traj.elements[0] is g0
        assert len(traj.results) == 6
        bk = p.backend
        for a, b in zip(traj.elements, traj.elements[1:]):
            assert np.array_equal(np.asarray(bk.target(a)), np.asarray(bk.source(b)))


def _kernel_cases(name):
    """(problem, element, Newton matrix at the first guess) on three sampled
    states of a built-in system."""
    p = md.FACTORIES[name]()
    for g in p.sample_states(np.random.default_rng(5), 3):
        yield p, g, pb.StepFrame(p, g).newton_matrix(p.backend.mirror(g))


class TestLapackKernels:
    """The raw LAPACK calls of a step against the numpy/scipy wrappers."""

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_lu_and_solve_bit_identical_to_scipy(self, name):
        for p, g, J in _kernel_cases(name):
            lu, piv, cond = sv.factor_newton_matrix(p, J)
            ref_lu, ref_piv = scipy.linalg.lu_factor(J)
            assert np.array_equal(lu, ref_lu) and np.array_equal(piv, ref_piv)
            rhs = pb.residual_at(p, g, p.backend.mirror(g))
            du, info = lapack.dgetrs(lu, piv, -rhs)
            assert info == 0
            assert np.array_equal(du, scipy.linalg.lu_solve((ref_lu, ref_piv), -rhs))
            anorm = float(np.max(np.sum(np.abs(J), axis=0)))
            rcond, _ = lapack.dgecon(ref_lu, anorm, norm="1")
            assert cond == 1.0 / rcond

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_svd_kernels_match_numpy(self, name):
        for p, g, _ in _kernel_cases(name):
            for G in pb.regularity_matrices(p, g):
                s = np.linalg.svd(G, compute_uv=False)
                smin, smax = pb.kernel_sigmas(G, p.r)
                assert abs(smax - s[0]) <= 1e-14 * s[0]
                assert abs(smin - s[p.r - 1]) <= 1e-14 * s[0]
            for M in (p.phi_left_jac(g), p.phi_right_jac(g)):
                N = pb._nullspace(M)
                _, s, vh = np.linalg.svd(M)
                ref = vh[int(np.sum(s > pb.NULLSPACE_RTOL * s[0])):].T
                assert N.shape == ref.shape
                assert np.max(np.abs(N @ N.T - ref @ ref.T)) <= 1e-14

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_multipliers_bit_identical_to_lstsq(self, name):
        for p, g, _ in _kernel_cases(name):
            h = sv.step(p, g).next
            F = del_covector(p, g, h)
            A = np.asarray(p.distribution.annihilator(p.backend.target(g)), dtype=float)
            ref, _, _, _ = np.linalg.lstsq(A, F, rcond=None)
            lam, fit = pb.lagrange_multipliers(p, g, h)
            assert np.array_equal(lam, ref)
            assert fit == float(np.max(np.abs(F - A @ ref)))

    def test_exactly_singular_matrix_is_inf_then_singular_error(self):
        p = md.make_chaplygin_sleigh()
        _, _, cond = sv.factor_newton_matrix(p, np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert cond == np.inf
        # a Newton matrix whose H block vanishes after the regularity test
        q, _ = _sleigh_with_bad_hess(2, 0.0)
        with pytest.raises(SingularError, match="condition estimate inf"):
            sv.step(q, q.initial_builder({"xi": [0.7, 0.9]}))

    def test_non_finite_newton_matrix_is_singular_error(self):
        p = md.make_chaplygin_sleigh()
        for bad in (np.nan, np.inf):
            with pytest.raises(SingularError, match="non-finite"):
                sv.factor_newton_matrix(p, np.array([[1.0, bad], [0.0, 1.0]]))

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_step_reports_what_it_solved(self, name):
        opts = sv.SolverOptions()
        for p, g, _ in _kernel_cases(name):
            res = sv.step(p, g, opts)
            assert np.array_equal(res.multipliers, pb.lagrange_multipliers(p, g, res.next)[0])
            assert float(np.max(np.abs(pb.residual_at(p, g, res.next)))) <= opts.tol_residual
            (lmin, _), (rmin, _) = sv.point_regularity_sigmas(p, g)
            assert (res.sigma_min_left, res.sigma_min_right) == (lmin, rmin)


class TestStepCounts:
    def test_backtracks_count_rejected_trial_points(self):
        # from this start the sleigh's line search rejects one full step;
        # every residual evaluation makes one right-gradient call, and the
        # multipliers reuse the last one
        p = md.make_chaplygin_sleigh()
        lag = p.lagrangian
        calls = [0]

        def rgrad(g):
            calls[0] += 1
            return lag.right_grad(g)

        q = dataclasses.replace(p, lagrangian=dataclasses.replace(lag, right_grad=rgrad))
        res = sv.step(q, q.initial_builder({"xi": [1.4, 1.8]}))
        assert res.backtracks == 1
        assert calls[0] == 1 + res.iterations + res.backtracks

    def test_refused_candidate_is_a_backtrack(self):
        # the guard sees g, then the first guess, then the first full Newton
        # candidate, which it refuses: the step halves and lands on the same
        # element as without the guard
        p = md.make_constrained_particle(h=0.01)
        g0 = p.initial_builder({"q0": [0, 0, 0], "velocity": [1.0, 0.5]})
        calls = [0]

        def guard(g):
            calls[0] += 1
            if calls[0] == 3:
                raise ChartDomainError("refused")

        res = sv.step(dataclasses.replace(p, domain_guard=guard), g0)
        assert res.backtracks == 1
        assert res.iterations == 2
        unguarded = sv.step(p, g0)
        assert all(np.array_equal(a, b) for a, b in zip(res.next, unguarded.next))

    def test_no_backtracks_on_full_newton_steps(self):
        p, g = _particle_pair()
        res = sv.step(p, g)
        assert res.backtracks == 0
        assert res.sigma_min_left > 0 and res.sigma_min_right > 0


class TestNewtonBookkeeping:
    """The loop's max-abs norms and merits on floats: a NaN anywhere in a
    residual behaves as a NaN max does, and the history lists the max-abs
    norm of each accepted residual."""

    @staticmethod
    def _run(residuals):
        """newton on the particle's pair backend with J = I and residuals
        returned in call order; returns the result and the residuals seen."""
        p, g = _particle_pair()
        seen = []

        def residual(h):
            seen.append(np.array(residuals[len(seen)]))
            return seen[-1]

        res = sv.newton(p, residual, lambda h: np.eye(3), p.backend.mirror(g), g,
                        sv.SolverOptions())
        return res, seen

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_nan_anywhere_in_the_first_guess_is_singular(self, where):
        r = [1e-3, 0.0, 0.0]
        r[where] = np.nan
        with pytest.raises(SingularError, match="first guess has non-finite entries"):
            self._run([r])

    def test_trial_with_a_nan_past_its_first_entry_is_rejected(self):
        # the full step's residual is [0, nan, 0]: its max skipping the NaN
        # would be 0, below the stop, so only a NaN max keeps it out
        res, seen = self._run([[1e-3, 0.0, 0.0], [0.0, np.nan, 0.0], [1e-12, 0.0, 0.0]])
        assert (res["iterations"], res["backtracks"]) == (1, 1)
        assert res["residual_history"] == [float(np.abs(r).max()) for r in (seen[0], seen[2])]

    def test_history_is_the_max_abs_of_each_accepted_residual(self):
        # a sleigh step that rejects one trial point: the accepted iterates
        # are the centers of the Newton matrices and the step's result
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [1.4, 1.8]})
        frame = pb.StepFrame(p, g)
        seen, centers = [], []

        def residual(h):
            seen.append((h, frame.residual(h)))
            return seen[-1][1]

        def jacobian(h):
            centers.append(h)
            return frame.newton_matrix(h)

        res = sv.newton(p, residual, jacobian, p.backend.mirror(g), g, sv.SolverOptions())
        assert res["backtracks"] == 1 and res["iterations"] >= 2
        accepted = centers + [res["next"]]
        expected = [float(np.abs(r).max()) for h, r in seen if any(h is a for a in accepted)]
        assert res["residual_history"] == expected


COUNTED_STEPS = 50


class TestCallCounts:
    """What a step does not recompute, pinned per step over COUNTED_STEPS
    steps: the first guess needs no chart log, the basis at alpha(g) is the
    previous step's basis at its beta, on a Lie group the first Newton
    matrix reuses the H(g) of the regularity test, and a step that accepts
    its first guess hands the H and phi gradient of its Newton matrix to the
    next step's regularity test."""

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_no_chart_coords_in_a_step(self, name, monkeypatch):
        calls = [0]
        for cls in (gpd.PairGroupoid, gpd.LieGroupGroupoid, gpd.ActionGroupoid,
                    gpd.AtiyahGroupoid):
            monkeypatch.setattr(cls, "coords", counted(cls.coords, calls))
        p = md.FACTORIES[name]()
        g = p.initial_builder(STARTS[name])
        for _ in range(COUNTED_STEPS):
            g = sv.step(p, g).next
            assert calls[0] == 0

    @pytest.mark.parametrize("name", ["veselova", "holonomic_sphere"])
    def test_one_basis_evaluation_per_step(self, name):
        p = md.FACTORIES[name]()
        calls = [0]
        dist = dataclasses.replace(p.distribution, basis=counted(p.distribution.basis, calls))
        p = dataclasses.replace(p, distribution=dist)
        g = p.initial_builder(STARTS[name])
        for k in range(COUNTED_STEPS):
            g = sv.step(p, g).next
            assert calls[0] == k + 2

    def test_first_newton_matrix_reuses_the_regularity_hessian(self):
        p = md.make_suslov(J=ROTATED_J)
        calls = [0]
        lag = dataclasses.replace(p.lagrangian, mixed_hess=counted(p.lagrangian.mixed_hess, calls))
        p = dataclasses.replace(p, lagrangian=lag)
        g = p.initial_builder(STARTS["suslov"])
        for _ in range(COUNTED_STEPS):
            before = calls[0]
            res = sv.step(p, g)
            assert res.iterations > 0
            assert calls[0] - before == 1 + max(0, res.iterations - 1)
            g = res.next

    @staticmethod
    def _counting_h_and_phi_jac(name):
        """The system with counted mixed_hess and phi_left_jac, and their
        running call counts."""
        p = md.FACTORIES[name]()
        hess, jac = [0], [0]
        lag = dataclasses.replace(p.lagrangian, mixed_hess=counted(p.lagrangian.mixed_hess, hess))
        con = dataclasses.replace(p.constraints, left_jac=counted(p.constraints.left_jac, jac))
        return dataclasses.replace(p, lagrangian=lag, constraints=con), hess, jac

    @pytest.mark.parametrize("name, per_step", [("suslov", 0), ("mobile_robot", 1)])
    def test_accepted_first_guess_carries_h_to_the_next_regularity_test(self, name, per_step):
        # a step that accepts its first guess returns the center of its only
        # Newton matrix, so the next step's regularity test reuses that
        # matrix's H and phi gradient; on a Lie group the first guess is g
        # itself, whose Newton matrix already reuses the test's pair
        p, hess, jac = self._counting_h_and_phi_jac(name)
        g = sv.step(p, p.initial_builder(STARTS[name])).next
        for _ in range(COUNTED_STEPS):
            carried = sv.point_regularity_sigmas(p, g)
            fresh = sv.point_regularity_sigmas(dataclasses.replace(p), g)
            assert carried == fresh
            before = hess[0], jac[0]
            res = sv.step(p, g)
            assert res.iterations == 0
            assert (hess[0] - before[0], jac[0] - before[1]) == (per_step, per_step)
            assert (res.sigma_min_left, res.sigma_min_right) == (fresh[0][0], fresh[1][0])
            g = res.next

    @pytest.mark.parametrize("name, calls", [("suslov", 1), ("mobile_robot", 2)])
    def test_equal_copy_of_the_accepted_element_evaluates_afresh(self, name, calls):
        # the record is keyed by identity: a copy of the element with the
        # same values is not its center, so its test evaluates H and the
        # phi gradient again (and the robot's Newton matrix once more), and
        # the step is the same
        p, hess, jac = self._counting_h_and_phi_jac(name)
        g = sv.step(p, p.initial_builder(STARTS[name])).next
        copy = tuple(a.copy() for a in g) if isinstance(g, tuple) else g.copy()
        before = hess[0], jac[0]
        from_copy = sv.step(p, copy)
        assert (hess[0] - before[0], jac[0] - before[1]) == (calls, calls)
        from_g = sv.step(p, g)
        assert np.array_equal(p.to_row(from_copy.next), p.to_row(from_g.next))
        assert np.array_equal(from_copy.multipliers, from_g.multipliers)
        for f in dataclasses.fields(sv.StepResult)[2:]:
            assert getattr(from_copy, f.name) == getattr(from_g, f.name)
