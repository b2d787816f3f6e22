"""Diagnostics tests: regularity and reversibility reports, momentum maps,
and the reduced-equation route for the Chaplygin-type robot."""

import dataclasses
import functools

import numpy as np
import pytest
from conftest import counted, momentum_drift_oracle, momentum_value_oracle
from test_golden import STARTS

import nhmech.diagnostics as dg
import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import ChartInversionFailed, NotInConstraintCone, SingularError


def _factory(name):
    return md.FACTORIES[name]()


class TestRegularityReport:
    @pytest.mark.parametrize("name", ["suslov", "chaplygin_sleigh", "veselova", "mobile_robot"])
    def test_identity_elements_are_nondegenerate(self, name):
        p = _factory(name)
        if name == "veselova":
            gam = np.array([0.2, -0.3, 0.93])
            x = gam / np.linalg.norm(gam)
        elif name == "mobile_robot":
            x = np.array([0.3, -0.2])
        else:
            g_ref = p.sample_states(np.random.default_rng(0), 1)[0]
            x = p.backend.source(g_ref)
        rep = dg.regularity_report(p, p.backend.identity(x))
        assert rep.left_nondegenerate and rep.right_nondegenerate
        assert np.isfinite(rep.jacobian_condition)
        assert rep.jacobian_condition < 1e6

    def test_generic_particle_element_is_regular(self):
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.2, -0.4, 0.1], "velocity": [1.1, 0.6]})
        rep = dg.regularity_report(p, g)
        assert rep.left_nondegenerate and rep.right_nondegenerate
        assert rep.sigma_min_left > 0 and rep.sigma_min_right > 0

    def test_degenerate_particle_element_is_flagged(self):
        # 2 + y1^2 + y1*y0 = 0 kills the target-side pairing
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.0, -3.0, 0.0], "q1": [1.0, 1.0, -1.0]})
        rep = dg.regularity_report(p, g)
        assert not rep.right_nondegenerate
        assert rep.left_nondegenerate


class TestReversibility:
    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_report_agrees_with_declared_flag(self, name):
        p = _factory(name)
        samples = p.sample_states(np.random.default_rng(7), 6)
        rep = dg.reversibility_report(p, samples)
        assert rep.consistent is True

    def test_veselova_breaks_symmetry_but_dynamics_reverse(self):
        # the gravity term is not inversion invariant, yet solved pairs still
        # reverse because the broken part only shifts the multiplier
        p = md.make_veselova()
        samples = p.sample_states(np.random.default_rng(3), 6)
        rep = dg.reversibility_report(p, samples)
        assert not rep.lagrangian_symmetric
        assert rep.constraint_invariant
        assert rep.dynamics_reversible
        assert rep.max_dynamics_defect < 1e-9

    def test_no_solved_step_is_not_reversible(self):
        # one Newton iteration solves none of these Veselova steps, so the
        # dynamics check has no reversed pair to measure
        p = md.make_veselova()
        samples = p.sample_states(np.random.default_rng(0), 4)
        rep = dg.reversibility_report(p, samples, sv.SolverOptions(max_iters=1))
        assert (rep.solved_steps, rep.dynamics_reversible) == (0, False)
        rep = dg.reversibility_report(p, samples)
        assert (rep.solved_steps, rep.dynamics_reversible) == (4, True)

    def test_ball_constraint_set_not_inversion_invariant(self):
        p = md.make_rolling_ball()
        samples = p.sample_states(np.random.default_rng(5), 6)
        rep = dg.reversibility_report(p, samples)
        assert not rep.constraint_invariant
        assert rep.max_constraint_defect > 1e-3

    @pytest.mark.parametrize("name", ["suslov", "chaplygin_sleigh"])
    def test_step_conjugated_by_inversion_is_inverse_step(self, name):
        p = _factory(name)
        bk = p.backend
        for g in p.sample_states(np.random.default_rng(11), 3):
            h = sv.step(p, g).next
            back = sv.step(p, bk.invert(h)).next
            assert bk.distance(back, bk.invert(g)) < 1e-8


class TestMomentum:
    def test_particle_y_momentum_exactly_conserved(self):
        p = md.make_constrained_particle(h=0.01)
        g0 = p.initial_builder({"q0": [0.2, -0.4, 0.1], "velocity": [1.1, 0.6]})
        traj = sv.evolve(p, g0, 60)
        spec = p.momentum_specs["y_translation"]
        vals = [dg.momentum_value(p, spec, g) for g in traj.elements]
        assert np.ptp(vals) <= 1e-13

    def test_particle_drift_identity(self):
        p = md.make_constrained_particle(h=0.01)
        g0 = p.initial_builder({"q0": [0.2, -0.4, 0.1], "velocity": [1.1, 0.6]})
        traj = sv.evolve(p, g0, 60)
        (drift,) = dg.momentum_drift(p, [p.momentum_specs["plane_translations"]], traj)
        assert max(abs(m - pr) for m, pr in drift) <= 1e-9

    def test_ball_momenta_conserved_with_zero_defects(self):
        p = md.make_rolling_ball()
        g0 = p.initial_builder({"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.3})
        traj = sv.evolve(p, g0, 60)
        for spec in p.momentum_specs.values():
            vals = [dg.momentum_value(p, spec, g) for g in traj.elements]
            assert np.ptp(vals) <= 1e-10
            d = dg.invariance_defect(p, spec, traj.elements[3], np.array([1.0]))
            assert abs(d) <= 1e-12
        for drift in dg.momentum_drift(p, list(p.momentum_specs.values()), traj):
            assert max(abs(m - pr) for m, pr in drift) <= 1e-9

    def test_direction_outside_distribution_raises(self):
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.2, -0.4, 0.1], "velocity": [1.1, 0.6]})
        spec = p.momentum_specs["plane_translations"]
        # the fixed parameter (1, 0.7) only lies in the distribution where
        # the y coordinate equals 0.7, which it does not here
        with pytest.raises(NotInConstraintCone):
            dg.momentum_value(p, spec, g, xi=np.array([1.0, 0.7]))

    def test_momentum_linear_in_parameter(self):
        p = md.make_rolling_ball()
        g = p.initial_builder({"xy0": [0.5, -0.2], "xy1": [0.52, -0.18], "spin": 0.1})
        spec = p.momentum_specs["spin"]
        a = dg.momentum_value(p, spec, g, xi=np.array([0.4]))
        b = dg.momentum_value(p, spec, g, xi=np.array([1.0]))
        assert abs(a - 0.4 * b) < 1e-12 * (1 + abs(b))


PASS_STEPS = 200
PASS_SYSTEMS = ["constrained_particle", "rolling_ball"]


@functools.cache
def _pass_runs(name):
    """PASS_STEPS-step runs from the acceptance start and three sampled
    starts (rng 0)."""
    p = md.FACTORIES[name]()
    starts = [p.initial_builder(STARTS[name])] + p.sample_states(np.random.default_rng(0), 3)
    return p, [sv.evolve(p, g0, PASS_STEPS).elements for g0 in starts]


def _with_section(p, name, value):
    """p with spec ``name``'s section replaced by one whose entries are all
    ``value``."""
    n = p.n
    spec = dataclasses.replace(
        p.momentum_specs[name], section=lambda xi, x: np.full(n, value)
    )
    return dataclasses.replace(p, momentum_specs=dict(p.momentum_specs, **{name: spec}))


class TestMomentumPass:
    """The single-pass drift against the two-evaluation oracle, what it
    evaluates per element, and non-finite momenta."""

    @pytest.mark.parametrize("name", PASS_SYSTEMS)
    def test_drift_and_values_equal_the_oracle(self, name):
        # plane_translations has a non-constant parameter map
        p, runs = _pass_runs(name)
        specs = list(p.momentum_specs.values())
        for elements in runs:
            assert dg.momentum_drift(p, specs, elements) == [
                momentum_drift_oracle(p, spec, elements) for spec in specs
            ]
            for spec in specs:
                for g in elements[::20]:
                    assert dg.momentum_value(p, spec, g) == momentum_value_oracle(p, spec, g)

    @pytest.mark.parametrize("name", PASS_SYSTEMS)
    def test_each_element_is_evaluated_once(self, name, monkeypatch):
        # every map together: one matching point, basis, left gradient and
        # least-squares fit per element
        p, runs = _pass_runs(name)
        elements = runs[0][:51]
        grads, bases, targets, fits = [0], [0], [0], [0]
        lag = dataclasses.replace(p.lagrangian, left_grad=counted(p.lagrangian.left_grad, grads))
        dist = dataclasses.replace(p.distribution, basis=counted(p.distribution.basis, bases))
        q = dataclasses.replace(p, lagrangian=lag, distribution=dist)
        monkeypatch.setattr(q.backend, "target", counted(q.backend.target, targets))
        monkeypatch.setattr(pb, "least_squares", counted(pb.least_squares, fits))
        specs = list(q.momentum_specs.values())
        assert len(specs) > 1
        drift = dg.momentum_drift(q, specs, elements)
        assert [len(pairs) for pairs in drift] == [len(elements) - 1] * len(specs)
        assert (grads[0], bases[0], targets[0], fits[0]) == (len(elements),) * 4

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_section_is_singular(self, value):
        p = _with_section(md.make_rolling_ball(), "spin", value)
        g = p.initial_builder(STARTS["rolling_ball"])
        spec = p.momentum_specs["spin"]
        with pytest.raises(SingularError, match="rolling_ball/spin: symmetry direction"):
            dg.momentum_value(p, spec, g)
        specs = [p.momentum_specs["roll_x"], spec]
        with pytest.raises(SingularError, match="rolling_ball/spin: symmetry direction"):
            dg.momentum_drift(p, specs, [g, g])

    def test_direction_outside_distribution_names_its_map(self):
        p = _with_section(md.make_rolling_ball(), "spin", 1.0)
        g = p.initial_builder(STARTS["rolling_ball"])
        specs = [p.momentum_specs["roll_x"], p.momentum_specs["spin"]]
        with pytest.raises(NotInConstraintCone, match="rolling_ball/spin: direction leaves"):
            dg.momentum_drift(p, specs, [g, g])

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_basis_or_value_is_singular(self, value):
        p = md.make_constrained_particle()
        g = p.initial_builder(STARTS["constrained_particle"])
        spec = p.momentum_specs["plane_translations"]
        basis = p.distribution.basis
        dist = dataclasses.replace(p.distribution, basis=lambda x: basis(x) + value)
        with pytest.raises(SingularError, match="plane_translations: distribution basis"):
            dg.momentum_value(dataclasses.replace(p, distribution=dist), spec, g)
        grad = p.lagrangian.left_grad
        # the first entry pairs with the section's nonzero first entry
        bad = np.array([value, 0.0, 0.0])
        lag = dataclasses.replace(p.lagrangian, left_grad=lambda el: grad(el) + bad)
        with pytest.raises(SingularError, match="plane_translations: momentum value"):
            dg.momentum_value(dataclasses.replace(p, lagrangian=lag), spec, g)


class TestChaplygin:
    def _solved_robot_pairs(self, n=3):
        p = md.make_mobile_robot()
        g0 = p.initial_builder({"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07})
        traj = sv.evolve(p, g0, n)
        return p, list(zip(traj.elements, traj.elements[1:]))

    def test_chart_inversion_roundtrip(self):
        p, pairs = self._solved_robot_pairs(1)
        bk = p.backend
        _, h = pairs[0]
        seed = bk.retract(h, 1e-3 * np.ones(bk.fiber_dim))
        rec = dg.chi_inverse(p, bk.source(h), bk.target(h), seed)
        assert bk.distance(rec, h) < 1e-10

    def test_chart_not_square_elsewhere(self):
        p = md.make_constrained_particle(h=0.01)
        g = p.initial_builder({"q0": [0.2, -0.4, 0.1], "velocity": [1.1, 0.6]})
        with pytest.raises(ChartInversionFailed):
            dg.chi_inverse(p, g[0], g[1] + 0.01, seed=g)

    def test_reduced_residual_vanishes_at_solved_pairs(self):
        p, pairs = self._solved_robot_pairs(3)
        for g, h in pairs:
            assert np.max(np.abs(dg.chaplygin_residual(p, g, h))) < 1e-8

    def test_reduced_residual_sees_non_solutions(self):
        p, pairs = self._solved_robot_pairs(1)
        bk = p.backend
        g, h = pairs[0]
        u = np.zeros(bk.fiber_dim)
        u[2] = 1e-2
        hp = bk.retract(h, u)
        red = dg.chaplygin_residual(p, g, hp)
        rows = pb.StepFrame(p, g).del_rows(hp)
        assert np.max(np.abs(red)) > 1e-2
        assert np.max(np.abs(rows)) > 1e-2

    def test_rejects_systems_without_reduction_structure(self):
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [0.3, 0.4]})
        h = sv.step(p, g).next
        with pytest.raises(ValueError):
            dg.chaplygin_residual(p, g, h)
