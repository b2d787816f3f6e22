"""Solver tests: steps against hand oracles, failure modes, Legendre maps."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from conftest import (counted, counted_evaluation, del_covector, newton_tail_is_quadratic,
                      particle_oracle)
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
    """The sleigh with the H of its joint evaluation multiplied by ``factor``
    from its ``first_bad_call``-th evaluation on; returns the problem and its
    running evaluation count."""
    calls = [0]

    def hess(H, count):
        return H * (factor if count >= first_bad_call else 1.0)

    return counted_evaluation(md.make_chaplygin_sleigh(), calls, hess), calls


def _evolve_counted(monkeypatch, p, g0, n_steps, *counts):
    """``sv.evolve(p, g0, n_steps)`` with ``sv.step`` wrapped (evolve looks it
    up by name); returns the trajectory and, per step, its result with the
    running values of ``counts`` (one-element lists) when the step before it
    returned (when evolve was called, for step 0) and when it returned."""
    step, per_step = sv.step, []
    last = [tuple(c[0] for c in counts)]

    def counted_step(*args, **kwargs):
        res = step(*args, **kwargs)
        now = tuple(c[0] for c in counts)
        per_step.append((res, last[0], now))
        last[0] = now
        return res

    monkeypatch.setattr(sv, "step", counted_step)
    return sv.evolve(p, g0, n_steps), per_step


def _growth(before, after):
    return tuple(a - b for a, b in zip(after, before))


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

    @pytest.mark.parametrize("name", ["suslov", "mobile_robot"])
    def test_tiny_cond_limit_trips_on_an_accepted_first_guess(self, name):
        # Suslov and the robot accept their mirror guess in 0 iterations, so
        # only the check on the first matrix can trip there
        p = md.FACTORIES[name]()
        g = p.initial_builder(STARTS[name])
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
        # step 1's first guess has q1.x = 0.3, which the constraint refuses
        # outside the line search
        def phi(g):
            if g[1][0] > 0.25:
                raise ChartDomainError("left the test window")
            return base.phi(g)

        p = md.make_constrained_particle(h=0.01)
        base = p.constraints
        p = dataclasses.replace(p, constraints=dataclasses.replace(base, phi=phi))
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

    @pytest.mark.parametrize("where", ["two-point pairing", "Newton matrix"],
                             ids=["pairing", "newton"])
    def test_non_finite_H_is_singular_with_step_index(self, where, monkeypatch):
        # in evolve, step 2's right test, first residual and first Newton
        # matrix reuse the evaluation that step 1 took at its root (g itself,
        # the first guess on a Lie group), so step 2 evaluates once per
        # accepted iterate, its root last; H turns NaN at that step's last
        # evaluation (read by the left test at the root) or at its first (the
        # Newton matrix of its second iteration)
        p, calls = _sleigh_with_bad_hess(np.inf, np.nan)
        g0 = p.initial_builder({"xi": [0.7, 0.9]})
        _, steps = _evolve_counted(monkeypatch, p, g0, 3, calls)
        res, (before,), (after,) = steps[2]
        assert res.iterations >= 2 and after - before == res.iterations
        first_bad = before + (res.iterations if where == "two-point pairing" else 1)
        p, _ = _sleigh_with_bad_hess(first_bad, np.nan)
        with pytest.raises(SingularError, match=where) as exc:
            sv.evolve(p, g0, 4)
        assert exc.value.step_index == 2

    @pytest.mark.parametrize("part", ["basis", "left_grad"])
    def test_failure_building_a_frame_carries_step_index(self, part):
        # evolve builds each step's frame (the basis at beta(g), the left
        # gradient at g) inside the step it tags: a callable that refuses
        # step 2's element fails step 2
        p, g0 = _particle_pair()
        bad = sv.evolve(p, g0, 3).elements[2]

        def refusing(fn, is_bad):
            def wrapped(arg):
                if is_bad(arg):
                    raise SingularError("refused step 2's element")
                return fn(arg)
            return wrapped

        if part == "basis":
            at = np.asarray(p.backend.target(bad), dtype=float)
            basis = refusing(p.distribution.basis, lambda x: np.array_equal(x, at))
            q = dataclasses.replace(p, distribution=dataclasses.replace(p.distribution,
                                                                        basis=basis))
        else:
            grad = refusing(p.lagrangian.left_grad,
                            lambda g: np.array_equal(p.to_row(g), p.to_row(bad)))
            q = dataclasses.replace(p, lagrangian=dataclasses.replace(p.lagrangian,
                                                                      left_grad=grad))
        with pytest.raises(SingularError, match="refused") as exc:
            sv.evolve(q, g0, 5)
        assert exc.value.step_index == 2

    def test_degenerate_root_fails_at_the_step_that_found_it(self, monkeypatch):
        # the left test of step k runs at step k's root, so a degenerate root
        # is step k's failure, not step k + 1's
        left_sigmas, calls = pb.StepFrame.left_sigmas, [0]

        def degenerate_at_step_3(frame, h, basis=None):
            calls[0] += 1
            return (0.0, 1.0) if calls[0] == 4 else left_sigmas(frame, h, basis)

        monkeypatch.setattr(pb.StepFrame, "left_sigmas", degenerate_at_step_3)
        p, g0 = _particle_pair()
        with pytest.raises(SingularError, match=r"degenerate at the next element \(left pairing") as exc:
            sv.evolve(p, g0, 6)
        assert exc.value.step_index == 3

    def test_start_with_a_degenerate_left_pairing_steps(self):
        # the left pairing at g0 belongs to the step into g0, which never ran,
        # so evolve does not test it. On the pair groupoid the step from g0
        # reads H(g0) in its right test only (its first guess is not g0), so
        # removing the left pairing's kernel direction w from H(g0) keeps the
        # right pairing regular and the path unchanged
        p, g0 = _particle_pair()
        lag = p.lagrangian
        w = scipy.linalg.null_space(p.phi_left_jac(g0))[:, 0]

        def hess(g):
            H = lag.mixed_hess(g)
            return H - np.outer(H @ w, w) if g is g0 else H

        q = dataclasses.replace(p, lagrangian=dataclasses.replace(lag, mixed_hess=hess))
        (lmin, lmax), (rmin, rmax) = sv.point_regularity_sigmas(q, g0)
        assert not sv.is_nondegenerate(lmin, lmax)
        assert sv.is_nondegenerate(rmin, rmax)
        traj, ref = sv.evolve(q, g0, 5), sv.evolve(p, g0, 5)
        assert np.array_equal(q.to_rows(traj.elements), p.to_rows(ref.elements))
        (lmin, lmax), _ = sv.point_regularity_sigmas(q, traj.elements[1])
        assert sv.is_nondegenerate(lmin, lmax)
        assert traj.results[0].sigma_min_left == ref.results[0].sigma_min_left == lmin

    def test_non_finite_first_residual_is_singular_error(self):
        # NaN > tol is False, so a NaN residual must not read as converged
        p = md.make_chaplygin_sleigh()
        lag = p.lagrangian
        nan_right = dataclasses.replace(lag, right_grad=lambda g: lag.right_grad(g) * np.nan)
        q = dataclasses.replace(p, lagrangian=nan_right)
        with pytest.raises(SingularError, match="residual"):
            sv.step(q, q.initial_builder({"xi": [0.7, 0.9]}))

    def test_arithmetic_failure_of_a_model_callable_is_singular_with_step_index(self):
        # the first guess of this start overflows the robot's turn angle, so
        # its phi takes math.sin(inf); the library leaves numpy's warning
        # policy to the caller, as the CLI does
        p = md.make_mobile_robot(J=3.0, R=5e-324, c=1e300)
        g0 = p.initial_builder({"wheels0": [0.3, -0.2], "dphi": 1.7e308, "dpsi": -0.07})
        with np.errstate(all="ignore"), pytest.raises(SingularError, match="arithmetic") as exc:
            sv.evolve(p, g0, 3)
        assert exc.value.step_index == 0
        assert isinstance(exc.value.__cause__, ValueError)

    @pytest.mark.parametrize("name, which, error", [("suslov", "left_grad", ValueError),
                                                    ("suslov", "left_grad", OverflowError),
                                                    ("mobile_robot", "right_grad", ValueError)])
    def test_numeric_failure_of_a_gradient_is_singular_with_step_index(self, name, which, error):
        # evolve takes the left gradient in building a step's frame, once per
        # step, and a step the right one in each candidate evaluation: a
        # robot step evaluates its first guess, which it accepts (a Suslov
        # step's first guess is g itself, which the step before evaluated).
        # Each raises on its third call, in step 2
        p = md.FACTORIES[name]()
        g0 = p.initial_builder(STARTS[name])
        grad, calls = getattr(p.lagrangian, which), [0]

        def failing(g):
            calls[0] += 1
            if calls[0] == 3:
                raise error("math domain error")
            return grad(g)

        lag = dataclasses.replace(p.lagrangian, **{which: failing})
        q = dataclasses.replace(p, lagrangian=lag)
        with pytest.raises(SingularError, match=f"{name}: arithmetic failure") as exc:
            sv.evolve(q, g0, 5)
        assert exc.value.step_index == 2
        assert isinstance(exc.value.__cause__, error)

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

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_step_carries_the_outgoing_momentum_of_its_element(self, name):
        # StepResult.left_grad is the left gradient at the element the step
        # left, and its projection on the basis at beta(g) is F+ there, bit
        # for bit
        p = md.FACTORIES[name]()
        traj = sv.evolve(p, p.initial_builder(STARTS[name]), 50)
        assert len(traj.results) == 50
        for g, res in zip(traj.elements, traj.results):
            assert np.array_equal(res.left_grad, p.left_grad(g))
            plus = res.left_grad @ p.distribution.basis(p.backend.target(g))
            assert plus.dtype == float and plus.shape == (p.r,)
            assert np.array_equal(plus, sv.legendre_plus(p, g).components)


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
    """The raw LAPACK calls of a step against the numpy/scipy wrappers, and
    what a step makes of their failures."""

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_lu_and_solve_bit_identical_to_scipy(self, name):
        for p, g, J in _kernel_cases(name):
            _, lu, piv, cond = pb.factor_newton_matrix(p, J)
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
        _, _, _, cond = pb.factor_newton_matrix(p, np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert cond == np.inf
        # a Newton matrix whose H block vanishes after the regularity test
        q, _ = _sleigh_with_bad_hess(2, 0.0)
        with pytest.raises(SingularError, match="condition estimate inf"):
            sv.step(q, q.initial_builder({"xi": [0.7, 0.9]}))

    def test_non_finite_newton_matrix_is_singular_error(self):
        p = md.make_chaplygin_sleigh()
        for bad in (np.nan, np.inf):
            with pytest.raises(SingularError, match="non-finite"):
                pb.factor_newton_matrix(p, np.array([[1.0, bad], [0.0, 1.0]]))

    def test_illegal_factorization_argument_is_singular_error(self, monkeypatch):
        # LAPACK reports an illegal argument through a negative info
        dgetrf = lapack.dgetrf
        monkeypatch.setattr(lapack, "dgetrf", lambda *a, **k: (*dgetrf(*a, **k)[:-1], -4))
        p = md.make_chaplygin_sleigh()
        with pytest.raises(SingularError, match=r"factorization failed \(info -4\)"):
            pb.factor_newton_matrix(p, np.eye(2))

    @pytest.mark.parametrize("rcond, info", [(0.5, -2), (0.0, 0), (-1.0, 0), (np.nan, 0)])
    def test_failed_condition_estimate_is_inf(self, rcond, info, monkeypatch):
        monkeypatch.setattr(lapack, "dgecon", lambda *a, **k: (rcond, info))
        p = md.make_chaplygin_sleigh()
        _, lu, piv, cond = pb.factor_newton_matrix(p, np.array([[2.0, 1.0], [1.0, 3.0]]))
        assert cond == np.inf
        assert np.array_equal(lu, scipy.linalg.lu_factor(np.array([[2.0, 1.0], [1.0, 3.0]]))[0])

    def test_failed_newton_solve_is_singular_error(self, monkeypatch):
        dgetrs = lapack.dgetrs
        monkeypatch.setattr(lapack, "dgetrs", lambda *a, **k: (dgetrs(*a, **k)[0], -3))
        p = md.make_chaplygin_sleigh()
        with pytest.raises(SingularError, match=r"Newton solve failed \(info -3\)"):
            sv.step(p, p.initial_builder({"xi": [0.7, 0.9]}))

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_step_reports_what_it_solved(self, name):
        opts = sv.SolverOptions()
        for p, g, _ in _kernel_cases(name):
            res = sv.step(p, g, opts)
            assert np.array_equal(res.multipliers, pb.lagrange_multipliers(p, g, res.next)[0])
            assert float(np.max(np.abs(pb.residual_at(p, g, res.next)))) <= opts.tol_residual
            # the left pairing at the root, the right one at g
            (lmin, _), _ = sv.point_regularity_sigmas(p, res.next)
            _, (rmin, _) = sv.point_regularity_sigmas(p, g)
            assert (res.sigma_min_left, res.sigma_min_right) == (lmin, rmin)


@pytest.mark.parametrize("name", sorted(md.FACTORIES))
def test_every_root_is_certified_by_its_own_step(name):
    # each step's left sigma is the point test of its root, the last one too
    p = md.FACTORIES[name]()
    traj = sv.evolve(p, p.initial_builder(STARTS[name]), 20)
    for res, h in zip(traj.results, traj.elements[1:]):
        assert res.sigma_min_left == sv.point_regularity_sigmas(p, h)[0][0]


class TestStepCounts:
    def test_backtracks_count_rejected_trial_points(self):
        # from this start the sleigh's line search rejects one full step;
        # the step evaluates g (its first guess) and every trial point once,
        # and the multipliers reuse the last evaluation
        calls = [0]
        q = counted_evaluation(md.make_chaplygin_sleigh(), calls)
        res = sv.step(q, q.initial_builder({"xi": [1.4, 1.8]}))
        assert res.backtracks == 1
        assert calls[0] == 1 + res.iterations + res.backtracks

    def test_refused_candidate_is_a_backtrack(self):
        # phi sees the first guess, then the first full Newton candidate,
        # which it refuses: the step halves and lands on the same element as
        # without the refusal
        p = md.make_constrained_particle(h=0.01)
        g0 = p.initial_builder({"q0": [0, 0, 0], "velocity": [1.0, 0.5]})
        base = p.constraints
        calls = [0]

        def phi(g):
            calls[0] += 1
            if calls[0] == 2:
                raise ChartDomainError("refused")
            return base.phi(g)

        refusing = dataclasses.replace(base, phi=phi)
        res = sv.step(dataclasses.replace(p, constraints=refusing), g0)
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

        identity = pb.factor_newton_matrix(p, np.eye(3))
        res = sv.newton(p, residual, lambda h: identity, p.backend.mirror(g), g,
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

        def factored(h):
            centers.append(h)
            return frame.factored(h)

        res = sv.newton(p, residual, factored, p.backend.mirror(g), g, sv.SolverOptions())
        assert res["backtracks"] == 1 and res["iterations"] >= 2
        accepted = centers + [res["next"]]
        expected = [float(np.abs(r).max()) for h, r in seen if any(h is a for a in accepted)]
        assert res["residual_history"] == expected


COUNTED_STEPS = 50
# joint candidate evaluations of a 200-step evolve from the golden start
EVOLVE_EVALUATIONS = {"constrained_particle": 400, "suslov": 1, "chaplygin_sleigh": 68,
                      "veselova": 600, "rolling_ball": 600, "mobile_robot": 200,
                      "holonomic_sphere": 600}


def _counting(p):
    """p with its joint evaluation counted, and its H and left phi gradient
    taken alone counted together; returns it and the two running counts."""
    evaluations, separate = [0], [0]
    p = counted_evaluation(p, evaluations)
    p.mixed_hess = counted(p.mixed_hess, separate)
    p.phi_left_jac = counted(p.phi_left_jac, separate)
    return p, evaluations, separate


class TestCallCounts:
    """What a step does not recompute, pinned per step over COUNTED_STEPS
    steps: the first guess needs no chart log, the basis at beta(g) serves
    the left test at the root too, each candidate is evaluated once (one
    joint evaluation serves its residual, its Newton matrix, the left test
    and the multipliers at a root), in evolve the root's evaluation serves
    the next step's right test, and on a Lie group, whose first guess is g
    itself, its first residual and Newton matrix too.  A frame takes H alone
    only for a right test at a g it has not evaluated."""

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

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_no_array_coercion_in_a_step(self, name, monkeypatch):
        # every callable a step reaches takes and returns float arrays, so
        # the step converts no value again
        calls = [0]
        p = md.FACTORIES[name]()
        g = p.initial_builder(STARTS[name])
        monkeypatch.setattr(np, "asarray", counted(np.asarray, calls))
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
            assert calls[0] == k + 1

    def test_first_newton_matrix_reuses_the_regularity_hessian(self, monkeypatch):
        p, evaluations, separate = _counting(md.make_suslov(J=ROTATED_J))
        g0 = p.initial_builder(STARTS["suslov"])
        _, steps = _evolve_counted(monkeypatch, p, g0, COUNTED_STEPS, evaluations, separate)
        for k, (res, before, after) in enumerate(steps):
            assert res.iterations > 0
            # one evaluation per trial point, whose Newton matrix (once
            # accepted) and left test at the root read it; later steps read
            # the right test's H and their first residual and Newton matrix,
            # at g, from the previous root's evaluation, while the first step
            # takes H(g0) alone for its right test and evaluates g0
            growth = (res.iterations + res.backtracks + (k == 0), int(k == 0))
            assert _growth(before, after) == growth

    @pytest.mark.parametrize("name", sorted(EVOLVE_EVALUATIONS))
    def test_evolve_carries_the_evaluation_from_step_to_step(self, name):
        # evolve hands each step's record to the next step's frame; a loop of
        # bare steps starts every frame empty, so each step takes H at its
        # element alone for its right test and, on a Lie group, evaluates its
        # element (its first guess) once more, and the path is the same
        p, evaluations, separate = _counting(md.FACTORIES[name]())
        g = g0 = p.initial_builder(STARTS[name])
        traj = sv.evolve(p, g0, 200)
        lie = p.backend.mirror(g0) is g0
        trials = sum(1 + res.iterations + res.backtracks for res in traj.results)
        assert evaluations[0] == EVOLVE_EVALUATIONS[name] == trials - 199 * lie
        assert separate[0] == 1
        for res in traj.results:
            g = sv.step(p, g).next
            assert np.array_equal(p.to_row(g), p.to_row(res.next))
        assert evaluations[0] == 2 * EVOLVE_EVALUATIONS[name] + 199 * lie
        assert separate[0] == 1 + 200

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_one_evaluation_per_candidate_and_no_separate_part(self, name):
        # a step evaluates its first guess and each trial point once; the
        # record supplies the right test at g (from the step before) and, on
        # a Lie group, the first guess, which is g itself.  After the first
        # step the four parts a step once called separately are not called
        # inside solver.step
        calls = [0]
        p = counted_evaluation(md.FACTORIES[name](), calls)
        g0 = p.initial_builder(STARTS[name])
        frame = pb.StepFrame(p, g0)
        g, record = sv.step(p, g0, frame=frame).next, frame.record

        def separate(h):
            raise AssertionError("a separate candidate part was called in a step")

        p.right_grad = p.phi = p.mixed_hess = p.phi_left_jac = separate
        for _ in range(COUNTED_STEPS):
            frame = pb.StepFrame(p, g, record)
            before = calls[0]
            res = sv.step(p, g, frame=frame)
            carried = frame.guess() is g
            assert calls[0] - before == 1 + res.iterations + res.backtracks - carried
            g, record = res.next, frame.record
            assert record[0] is g

    @pytest.mark.parametrize("name, per_step", [("suslov", 0), ("mobile_robot", 1)])
    def test_accepted_first_guess_carries_its_evaluation_to_the_next_regularity_test(
            self, name, per_step, monkeypatch):
        # a step that accepts its first guess returns the center of its only
        # Newton matrix, so its left test and multipliers at that root read
        # the evaluation of its first residual, and evolve hands it to the
        # next step's right test; on a Lie group the first guess is g itself,
        # whose evaluation the step before left.  No part is taken alone
        p, evaluations, separate = _counting(md.FACTORIES[name]())
        g0 = p.initial_builder(STARTS[name])
        traj, steps = _evolve_counted(monkeypatch, p, g0, COUNTED_STEPS + 1, evaluations,
                                      separate)
        for g, (res, before, after) in zip(traj.elements[1:], steps[1:]):
            assert res.iterations == 0
            assert _growth(before, after) == (per_step, 0)
            # the carried evaluation gives the sigmas a fresh frame gives
            assert res.sigma_min_left == sv.point_regularity_sigmas(p, res.next)[0][0]
            assert res.sigma_min_right == sv.point_regularity_sigmas(p, g)[1][0]

    @pytest.mark.parametrize("name, from_g", [("suslov", 0), ("mobile_robot", 1)])
    def test_equal_copy_of_the_accepted_element_evaluates_afresh(self, name, from_g):
        # the record is keyed by identity: handed the record of the step
        # into g, a frame for a copy of g with the same values takes H alone
        # for its right test and evaluates its first guess (the copy itself
        # on a Lie group), a frame for g itself reads both from the record
        # (the robot still evaluates its own first guess), and the steps are
        # the same
        p, evaluations, separate = _counting(md.FACTORIES[name]())
        g0 = p.initial_builder(STARTS[name])
        into = pb.StepFrame(p, g0)
        g = sv.step(p, g0, frame=into).next
        copy = tuple(a.copy() for a in g) if isinstance(g, tuple) else g.copy()

        def step_from(start):
            before = evaluations[0], separate[0]
            res = sv.step(p, start, frame=pb.StepFrame(p, start, into.record))
            return res, (evaluations[0] - before[0], separate[0] - before[1])

        from_copy, taken = step_from(copy)
        assert taken == (1, 1)
        from_g_res, taken = step_from(g)
        assert taken == (from_g, 0)
        assert np.array_equal(p.to_row(from_copy.next), p.to_row(from_g_res.next))
        assert np.array_equal(from_copy.multipliers, from_g_res.multipliers)
        for f in dataclasses.fields(sv.StepResult)[2:]:
            assert np.array_equal(getattr(from_copy, f.name), getattr(from_g_res, f.name))
