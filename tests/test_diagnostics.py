"""Diagnostics tests: regularity and reversibility reports, momentum maps,
and the reduced-equation route for the Chaplygin-type robot."""

import dataclasses
import functools
import math

import numpy as np
import pytest
from conftest import (counted, counted_evaluation, element_gap, momentum_drift_oracle,
                      momentum_value_oracle, reversibility_oracle)
from test_golden import STARTS

import nhmech.diagnostics as dg
import nhmech.models as md
import nhmech.problem as pb
import nhmech.solver as sv
from nhmech.errors import (ChartDomainError, ChartInversionFailed, NhError, NotInConstraintCone,
                           SingularError)


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

    def test_mirror_at_the_chart_cut_reports_an_infinite_condition(self):
        # the sleigh turned by pi lies on its constraint set and passes the
        # point test, but its mirror guess has no principal log
        p = md.make_chaplygin_sleigh()
        g = np.array([np.pi, 0.0, 0.0])
        assert p.phi(g) == pytest.approx([0.0], abs=1e-15)
        with pytest.raises(ChartDomainError):
            p.backend.mirror(g)
        rep = dg.regularity_report(p, g)
        assert rep.left_nondegenerate and rep.right_nondegenerate
        assert rep.sigma_min_left == pytest.approx(0.0946, abs=1e-4)
        assert rep.sigma_min_right == pytest.approx(0.0946, abs=1e-4)
        assert rep.jacobian_condition == np.inf


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

    def test_arithmetic_failure_in_a_step_leaves_the_sample_unsolved(self):
        # the step of the first sample meets a math domain error in H; it is
        # that step's SingularError, so the sample counts as unsolved
        p = md.make_constrained_particle()
        samples = p.sample_states(np.random.default_rng(0), 2)
        lag = p.lagrangian

        def hess(g):
            return math.sqrt(-1.0) if g is samples[0] else lag.mixed_hess(g)

        q = dataclasses.replace(p, lagrangian=dataclasses.replace(lag, mixed_hess=hess))
        with pytest.raises(SingularError, match="math domain error") as exc:
            sv.step(q, samples[0])
        assert isinstance(exc.value.__cause__, ValueError)
        assert dg.reversibility_report(p, samples).solved_steps == 2
        assert dg.reversibility_report(q, samples).solved_steps == 1

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    @pytest.mark.parametrize("max_iters", [None, 1])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_two_pass_walk_equals_the_one_loop_walk(self, name, max_iters, seed):
        # max_iters=1 leaves the steps that need an iteration unsolved
        p = _factory(name)
        samples = p.sample_states(np.random.default_rng(seed), 6)
        options = None if max_iters is None else sv.SolverOptions(max_iters=max_iters)
        expected = reversibility_oracle(p, samples, options)
        assert dg.reversibility_report(p, samples, options) == expected
        frames = [pb.StepFrame(p, g) for g in samples]
        oracle_frames = [pb.StepFrame(p, g) for g in samples]
        assert (dg.reversibility_report(p, samples, options, frames)
                == reversibility_oracle(p, samples, options, oracle_frames) == expected)

    def test_ball_constraint_set_not_inversion_invariant(self):
        p = md.make_rolling_ball()
        samples = p.sample_states(np.random.default_rng(5), 6)
        rep = dg.reversibility_report(p, samples)
        assert not rep.constraint_invariant
        assert rep.max_constraint_defect > 1e-3

    def test_nan_lagrangian_at_an_inverted_sample_is_not_symmetric(self):
        # Python's max(defect, nan) keeps the defect, which read a NaN as 0
        p = md.make_suslov()
        samples = p.sample_states(np.random.default_rng(7), 4)
        at = np.asarray(p.backend.invert(samples[1]), dtype=float).tobytes()
        lagrangian = p.lagrangian.eval
        lag = dataclasses.replace(
            p.lagrangian,
            eval=lambda g: math.nan if np.asarray(g, dtype=float).tobytes() == at
            else lagrangian(g),
        )
        rep = dg.reversibility_report(dataclasses.replace(p, lagrangian=lag), samples)
        assert math.isnan(rep.max_lagrangian_defect)
        assert rep.lagrangian_symmetric is False
        assert rep.constraint_invariant and rep.dynamics_reversible
        assert rep.consistent is False
        assert dg.reversibility_report(p, samples).lagrangian_symmetric is True

    @pytest.mark.parametrize("name", ["suslov", "chaplygin_sleigh"])
    def test_step_conjugated_by_inversion_is_inverse_step(self, name):
        p = _factory(name)
        bk = p.backend
        for g in p.sample_states(np.random.default_rng(11), 3):
            h = sv.step(p, g).next
            back = sv.step(p, bk.invert(h)).next
            assert element_gap(bk, back, bk.invert(g)) < 1e-8


def _same(a, b):
    """Equal values: tuples part by part, arrays by ``np.array_equal``,
    anything else by ``==``."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _step_or_error(p, g, frame=None, options=None):
    """The step from g, or the type and message of the NhError it raises."""
    try:
        return sv.step(p, g, options, frame)
    except NhError as exc:
        return type(exc), str(exc)


def _assert_same_outcome(shared, fresh):
    """Two outcomes of :func:`_step_or_error`: the same error, or equal values
    in every StepResult field."""
    if isinstance(fresh, tuple):
        assert shared == fresh
        return
    for f in dataclasses.fields(sv.StepResult):
        assert _same(getattr(shared, f.name), getattr(fresh, f.name)), f.name


class TestSharedFrame:
    """A sample's report and its step sharing one StepFrame (as ``check``
    shares them) give the reports, the step and the errors of fresh frames."""

    @staticmethod
    def _samples(p):
        return p.sample_states(np.random.default_rng(12), 10)

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_report_then_step_from_one_frame(self, name):
        p = _factory(name)
        for g in self._samples(p):
            frame = pb.StepFrame(p, g)
            assert dg.regularity_report(p, g, frame) == dg.regularity_report(p, g)
            assert frame.guess() is frame.guess()
            _assert_same_outcome(_step_or_error(p, g, frame), _step_or_error(p, g))

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_report_then_one_iteration_step_from_one_frame(self, name):
        # a step that needs a second Newton matrix fails after its first one
        # came from the report's factorization
        p = _factory(name)
        options = sv.SolverOptions(max_iters=1)
        for g in self._samples(p):
            frame = pb.StepFrame(p, g)
            dg.regularity_report(p, g, frame)
            _assert_same_outcome(_step_or_error(p, g, frame, options),
                                 _step_or_error(p, g, None, options))

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_report_and_step_from_one_frame_factor_the_guess_once(self, name, monkeypatch):
        calls = [0]
        monkeypatch.setattr(pb.lapack, "dgetrf", counted(pb.lapack.dgetrf, calls))
        p = _factory(name)
        factored = 0
        for g in self._samples(p):
            counts = []
            for frame in (pb.StepFrame(p, g), None):
                before = calls[0]
                report = dg.regularity_report(p, g, frame)
                _step_or_error(p, g, frame)
                counts.append(calls[0] - before)
            if math.isfinite(report.jacobian_condition):
                factored += 1
                assert counts[0] == counts[1] - 1
        assert factored >= len(self._samples(p)) // 2

    def test_non_finite_guess_matrix_is_not_kept(self, monkeypatch):
        # H is NaN at the mirror guess's values only: the report's
        # factorization raises, keeps nothing, and the step factors again and
        # raises what a step from a fresh frame raises
        p = _factory("constrained_particle")
        g = self._samples(p)[0]
        bad = p.to_row(p.backend.mirror(g))
        hess = p.lagrangian.mixed_hess

        def nan_at_guess(h):
            return hess(h) * (np.nan if np.array_equal(p.to_row(h), bad) else 1.0)

        p = dataclasses.replace(p, lagrangian=dataclasses.replace(p.lagrangian,
                                                                   mixed_hess=nan_at_guess))
        calls = [0]
        monkeypatch.setattr(pb, "factor_newton_matrix", counted(pb.factor_newton_matrix, calls))
        frame = pb.StepFrame(p, g)
        assert dg.regularity_report(p, g, frame).jacobian_condition == np.inf
        shared = _step_or_error(p, g, frame)
        assert calls[0] == 2
        assert shared == _step_or_error(p, g)
        assert shared == (SingularError, "constrained_particle: Newton matrix has non-finite "
                                         "entries")

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_tiny_cond_limit_trips_after_the_report_factored_the_guess(self, name):
        p = _factory(name)
        options = sv.SolverOptions(cond_limit=1.0)
        for g in self._samples(p)[:3]:
            frame = pb.StepFrame(p, g)
            if not math.isfinite(dg.regularity_report(p, g, frame).jacobian_condition):
                continue
            shared = _step_or_error(p, g, frame, options)
            assert shared[0] is SingularError and "exceeds limit 1.0e+00" in shared[1]
            assert shared == _step_or_error(p, g, None, options)

    @pytest.mark.parametrize("name", sorted(md.FACTORIES))
    def test_reversibility_report_with_the_reports_frames(self, name):
        p = _factory(name)
        samples = self._samples(p)
        frames = [pb.StepFrame(p, g) for g in samples]
        for g, frame in zip(samples, frames):
            dg.regularity_report(p, g, frame)
        fresh = dg.reversibility_report(p, samples)
        assert dg.reversibility_report(p, samples, frames=frames) == fresh

    @pytest.mark.parametrize("name", ["suslov", "mobile_robot"])
    def test_step_accepting_the_reports_guess_takes_no_evaluation(self, name):
        # these steps accept their first guess: a fresh step takes H at g
        # alone for its right test and evaluates the guess (g itself on a Lie
        # group) for its residual and Newton matrix, and its left test at the
        # root reads that evaluation.  From the report's frame the step takes
        # neither, even after an identity report on the same problem (as in
        # ``check``): the report's right test kept H(g) in the frame, and its
        # Newton matrix left the guess's evaluation in the frame's record,
        # where the step's residual, Newton matrix and left test read it.
        calls, hess = [0], [0]
        p = counted_evaluation(_factory(name), calls)
        p.mixed_hess = counted(p.mixed_hess, hess)
        bk = p.backend
        for g in self._samples(p):
            frame = pb.StepFrame(p, g)
            dg.regularity_report(p, g, frame)
            counts = []
            for shared in (frame, None):
                dg.regularity_report(p, bk.identity(bk.target(g)))
                before = calls[0], hess[0]
                assert sv.step(p, g, frame=shared).iterations == 0
                counts.append((calls[0] - before[0], hess[0] - before[1]))
            assert counts == [(0, 0), (1, 1)]

    def test_frame_of_another_element_is_a_value_error(self):
        p = _factory("suslov")
        g0, g1 = self._samples(p)[:2]
        frame = pb.StepFrame(p, g0)
        with pytest.raises(ValueError, match="another element"):
            sv.step(p, g1, frame=frame)
        with pytest.raises(ValueError, match="another element"):
            dg.regularity_report(p, g1, frame)
        with pytest.raises(ValueError, match="another element"):
            dg.reversibility_report(p, [g1], frames=[frame])
        # keyed by identity: an equal copy is another element
        with pytest.raises(ValueError, match="another element"):
            sv.step(p, g0.copy(), frame=frame)
        with pytest.raises(ValueError, match="another element"):
            sv.step(dataclasses.replace(p), g0, frame=frame)
        with pytest.raises(ValueError):
            dg.reversibility_report(p, [g0, g1], frames=[frame])

    def test_guess_outside_the_chart_fails_the_shared_step_as_a_fresh_one(self, monkeypatch):
        # the mirror guess raises, so the report factors nothing and keeps
        # nothing, and neither step gets as far as a factorization
        calls = [0]
        monkeypatch.setattr(pb, "factor_newton_matrix", counted(pb.factor_newton_matrix, calls))
        p = md.make_chaplygin_sleigh()
        g = p.initial_builder({"xi": [np.pi, 0.5]})
        frame = pb.StepFrame(p, g)
        assert dg.regularity_report(p, g, frame).jacobian_condition == np.inf
        with pytest.raises(ChartDomainError) as shared:
            sv.step(p, g, frame=frame)
        with pytest.raises(ChartDomainError) as fresh:
            sv.step(p, g)
        assert str(shared.value) == str(fresh.value)
        assert calls[0] == 0


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
def _pass_trajectories(name):
    """PASS_STEPS-step trajectories from the acceptance start and three
    sampled starts (rng 0)."""
    p = md.FACTORIES[name]()
    starts = [p.initial_builder(STARTS[name])] + p.sample_states(np.random.default_rng(0), 3)
    return p, [sv.evolve(p, g0, PASS_STEPS) for g0 in starts]


def _pass_runs(name):
    """The elements of the runs of :func:`_pass_trajectories`."""
    p, trajectories = _pass_trajectories(name)
    return p, [traj.elements for traj in trajectories]


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
        # every map together: one matching point, basis and left gradient
        # per element, and one batched cone fit per block of elements; each
        # map's section once per element, and once more per step for the
        # predicted change, which max_momentum_drift does not compute
        p, runs = _pass_runs(name)
        elements = runs[0][:51]
        steps = len(elements) - 1
        specs = list(p.momentum_specs.values())
        assert len(specs) > 1
        passes = [(dg.momentum_drift, dg.momentum_drift(p, specs, elements), 2 * steps + 1),
                  (dg.max_momentum_drift, dg.max_momentum_drift(p, specs, elements), steps + 1)]
        for block in (16, dg.MOMENTUM_BLOCK):
            for momentum_pass, expected, sections_per_map in passes:
                grads, bases, targets, fits = [0], [0], [0], [0]
                sections = {spec.name: [0] for spec in specs}
                grad = counted(p.lagrangian.left_grad, grads)
                lag = dataclasses.replace(p.lagrangian, left_grad=grad)
                dist = dataclasses.replace(p.distribution,
                                           basis=counted(p.distribution.basis, bases))
                counted_specs = [
                    dataclasses.replace(spec, section=counted(spec.section, sections[spec.name]))
                    for spec in specs
                ]
                q = dataclasses.replace(p, lagrangian=lag, distribution=dist)
                with monkeypatch.context() as patch:
                    patch.setattr(q.backend, "target", counted(q.backend.target, targets))
                    patch.setattr(dg, "_cone_gaps", counted(dg._cone_gaps, fits))
                    patch.setattr(dg, "MOMENTUM_BLOCK", block)
                    result = momentum_pass(q, counted_specs, elements)
                assert result == expected
                assert (grads[0], bases[0], targets[0]) == (len(elements),) * 3
                assert fits[0] == -(-len(elements) // block)
                assert sections == {spec.name: [sections_per_map] for spec in specs}

    @pytest.mark.parametrize("name", PASS_SYSTEMS)
    def test_trajectory_input_equals_the_oracle(self, name):
        # the left gradients that the steps carry give the values that the
        # oracle's own evaluations give
        p, trajectories = _pass_trajectories(name)
        specs = list(p.momentum_specs.values())
        for traj in trajectories:
            oracle = [momentum_drift_oracle(p, spec, traj.elements) for spec in specs]
            assert dg.momentum_drift(p, specs, traj) == oracle
            measured = [abs(change) for pairs in oracle for change, _ in pairs]
            assert dg.max_momentum_drift(p, specs, traj) == max(measured)

    @pytest.mark.parametrize("name", PASS_SYSTEMS)
    def test_a_trajectory_of_the_problem_hands_over_its_left_gradients(self, name):
        # each step carries the left gradient of the element it left, so
        # only the last element's is evaluated; a list of the elements, or
        # the trajectory of another problem object, evaluates every one
        p = _factory(name)
        calls = [0]
        lag = dataclasses.replace(p.lagrangian, left_grad=counted(p.lagrangian.left_grad, calls))
        q = dataclasses.replace(p, lagrangian=lag)
        traj = sv.evolve(q, q.initial_builder(STARTS[name]), 40)
        other = dataclasses.replace(q)
        specs = list(q.momentum_specs.values())
        cases = [(q, traj, 1), (q, traj.elements, len(traj)), (other, traj, len(traj))]
        for momentum_pass in (dg.momentum_drift, dg.max_momentum_drift):
            for problem, trajectory, expected in cases:
                calls[0] = 0
                momentum_pass(problem, specs, trajectory)
                assert calls[0] == expected

    @pytest.mark.parametrize("name", PASS_SYSTEMS)
    def test_max_drift_is_the_largest_measured_change(self, name):
        # simulate's summary value, on every system that has maps
        assert PASS_SYSTEMS == sorted(n for n in md.FACTORIES if _factory(n).momentum_specs)
        p, runs = _pass_runs(name)
        specs = list(p.momentum_specs.values())
        for elements in runs:
            drift = dg.momentum_drift(p, specs, elements)
            measured = [abs(change) for pairs in drift for change, _ in pairs]
            assert dg.max_momentum_drift(p, specs, elements) == max(measured)
        assert dg.max_momentum_drift(p, specs, runs[0][:1]) == 0.0

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

    def test_failed_basis_svd_is_singular(self, monkeypatch):
        p = md.make_rolling_ball()
        g = p.initial_builder(STARTS["rolling_ball"])

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        with pytest.raises(SingularError, match="rolling_ball/spin: distribution basis SVD failed"):
            dg.momentum_value(p, p.momentum_specs["spin"], g)


OFF_CONE = np.array([0.0, 0.0, 1.0])  # vertical: no particle basis column reaches it
NOT_FINITE = np.array([np.nan, 0.0, 0.0])


def _planted(p, elements, sections=(), bases=()):
    """p with some sections and bases replaced at the matching points of
    chosen elements: ``sections`` holds (index, spec name, direction) and
    ``bases`` holds (index, basis); the other calls go to the model."""
    def key(i):
        return np.asarray(p.backend.target(elements[i]), dtype=float).tobytes()

    specs = dict(p.momentum_specs)
    for name in {name for _, name, _ in sections}:
        planted = {key(i): v for i, n, v in sections if n == name}
        section = specs[name].section
        specs[name] = dataclasses.replace(
            specs[name],
            section=lambda xi, x, planted=planted, section=section: planted.get(
                np.asarray(x, dtype=float).tobytes(), section(xi, x)
            ),
        )
    planted_bases = {key(i): b for i, b in bases}
    basis = p.distribution.basis
    dist = dataclasses.replace(
        p.distribution,
        basis=lambda x: planted_bases.get(np.asarray(x, dtype=float).tobytes(), basis(x)),
    )
    return dataclasses.replace(p, momentum_specs=specs, distribution=dist)


class _Refused(Exception):
    """What a model callable of the error-order tests raises."""


def _refusing(p, elements, index, name):
    """p whose map ``name`` raises _Refused from its section at the matching
    point of elements[index]."""
    at = np.asarray(p.backend.target(elements[index]), dtype=float).tobytes()
    spec = p.momentum_specs[name]

    def section(xi, x):
        if np.asarray(x, dtype=float).tobytes() == at:
            raise _Refused(f"section refused at element {index}")
        return spec.section(xi, x)

    specs = {**p.momentum_specs, name: dataclasses.replace(spec, section=section)}
    return dataclasses.replace(p, momentum_specs=specs)


LONG_STEPS = 600


@functools.cache
def _long_particle_run():
    """A LONG_STEPS-step particle run from the acceptance start: longer than
    two momentum blocks, with the non-constant plane_translations parameter."""
    p = md.make_constrained_particle()
    return p, sv.evolve(p, p.initial_builder(STARTS["constrained_particle"]), LONG_STEPS).elements


def test_trajectory_input_fails_at_the_element_a_list_fails_at():
    # planted failures, and a non-finite left gradient that a step carries
    p = md.make_constrained_particle()
    traj = sv.evolve(p, p.initial_builder(STARTS["constrained_particle"]), 30)
    plane, y = "plane_translations", "y_translation"
    cases = [
        ([(7, y, OFF_CONE), (9, plane, NOT_FINITE)], NotInConstraintCone, f"{y}: direction"),
        ([(7, y, NOT_FINITE), (9, plane, OFF_CONE)], SingularError, f"{y}: symmetry"),
        ([(9, plane, OFF_CONE)], NotInConstraintCone, f"{plane}: direction"),
    ]
    for sections, error, message in cases:
        q = _planted(p, traj.elements, sections)
        specs = [q.momentum_specs[plane], q.momentum_specs[y]]
        carried = sv.Trajectory(problem=q, elements=traj.elements, results=traj.results)
        for trajectory in (carried, traj.elements):
            with pytest.raises(error, match=message):
                dg.momentum_drift(q, specs, trajectory)
    results = list(traj.results)
    results[7] = dataclasses.replace(results[7], left_grad=np.full(3, np.nan))
    carried = sv.Trajectory(problem=p, elements=traj.elements, results=results)
    specs = [p.momentum_specs[plane], p.momentum_specs[y]]
    with pytest.raises(SingularError, match=f"{plane}: momentum value is nan"):
        dg.max_momentum_drift(p, specs, carried)
    # inf against the direction's zero entry: the value is nan, with no numpy
    # warning from the product
    results[7] = dataclasses.replace(results[7], left_grad=np.array([0.0, np.inf, 0.0]))
    carried = sv.Trajectory(problem=p, elements=traj.elements, results=results)
    with pytest.raises(SingularError, match=f"{plane}: momentum value is nan"):
        dg.max_momentum_drift(p, specs, carried)
    # and when an element before it fails, that element raises first
    q = _planted(p, traj.elements, [(5, y, OFF_CONE)])
    carried = sv.Trajectory(problem=q, elements=traj.elements, results=results)
    with pytest.raises(NotInConstraintCone, match=f"{y}: direction"):
        dg.max_momentum_drift(q, [q.momentum_specs[plane], q.momentum_specs[y]], carried)


class TestMomentumErrorOrder:
    """The first failing element in trajectory order raises, whatever the
    kinds of failure after it, across and within momentum blocks."""

    PLANE, Y = "plane_translations", "y_translation"
    OFF = "constrained_particle/{}: direction leaves"
    SINGULAR = "constrained_particle/{}: {}"

    def _drift(self, p, elements):
        return dg.momentum_drift(p, [p.momentum_specs[n] for n in (self.PLANE, self.Y)], elements)

    def test_off_cone_direction_before_non_finite_section(self):
        p, elements = _long_particle_run()
        elements = elements[:6]
        q = _planted(p, elements, [(2, self.Y, OFF_CONE), (4, self.PLANE, NOT_FINITE)])
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.Y)):
            self._drift(q, elements)
        q = _planted(p, elements, [(2, self.Y, NOT_FINITE), (4, self.PLANE, OFF_CONE)])
        with pytest.raises(SingularError, match=self.SINGULAR.format(self.Y, "symmetry")):
            self._drift(q, elements)

    def test_off_cone_direction_before_non_finite_basis(self):
        p, elements = _long_particle_run()
        elements = elements[:6]
        bad_basis = np.full((3, 2), np.nan)
        q = _planted(p, elements, [(1, self.Y, OFF_CONE)], [(3, bad_basis)])
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.Y)):
            self._drift(q, elements)
        # the basis message names the first map
        q = _planted(p, elements, [(3, self.Y, OFF_CONE)], [(1, bad_basis)])
        with pytest.raises(SingularError, match=self.SINGULAR.format(self.PLANE, "distribution")):
            self._drift(q, elements)

    def test_off_cone_direction_before_a_raising_section(self):
        # the section raises while the block is still being filled; the
        # checks of the elements before it run first
        p, elements = _long_particle_run()
        elements = elements[:6]
        q = _refusing(_planted(p, elements, [(1, self.Y, OFF_CONE)]), elements, 4, self.PLANE)
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.Y)):
            self._drift(q, elements)

    def test_raising_section_after_clean_elements_propagates(self):
        p, elements = _long_particle_run()
        elements = elements[:6]
        with pytest.raises(_Refused, match="element 3"):
            self._drift(_refusing(p, elements, 3, self.PLANE), elements)

    @pytest.mark.parametrize("off, refused", [(10, 16), (17, 20)])
    def test_earlier_failure_wins_over_a_raising_section(self, off, refused, monkeypatch):
        # blocks of 16: an off-cone direction in block one against a raise
        # at the first element of block two, and both inside block two
        monkeypatch.setattr(dg, "MOMENTUM_BLOCK", 16)
        p, elements = _long_particle_run()
        elements = elements[:40]
        q = _refusing(_planted(p, elements, [(off, self.Y, OFF_CONE)]), elements, refused,
                      self.PLANE)
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.Y)):
            self._drift(q, elements)
        with pytest.raises(_Refused, match=f"element {refused}"):
            self._drift(_refusing(p, elements, refused, self.PLANE), elements)

    def test_drift_across_blocks_equals_the_oracle(self):
        p, elements = _long_particle_run()
        assert len(elements) > 2 * dg.MOMENTUM_BLOCK
        specs = [p.momentum_specs[n] for n in (self.PLANE, self.Y)]
        assert dg.momentum_drift(p, specs, elements) == [
            momentum_drift_oracle(p, spec, elements) for spec in specs
        ]

    @pytest.mark.parametrize("first", [dg.MOMENTUM_BLOCK - 1, dg.MOMENTUM_BLOCK + 40])
    def test_failure_in_a_later_block_names_its_element(self, first):
        # the later map fails first, so the message tells the element apart
        # from the other map's failure one element later
        p, elements = _long_particle_run()
        q = _planted(p, elements, [(first, self.Y, OFF_CONE), (first + 1, self.PLANE, OFF_CONE)])
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.Y)):
            self._drift(q, elements)
        q = _planted(p, elements, [(first, self.Y, NOT_FINITE),
                                   (first + 1, self.PLANE, NOT_FINITE)])
        with pytest.raises(SingularError, match=self.SINGULAR.format(self.Y, "symmetry")):
            self._drift(q, elements)
        q = _planted(p, elements, [(first, self.PLANE, OFF_CONE), (first + 1, self.Y, NOT_FINITE)])
        with pytest.raises(NotInConstraintCone, match=self.OFF.format(self.PLANE)):
            self._drift(q, elements)


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
        assert element_gap(bk, rec, h) < 1e-10

    def test_chart_inversion_rejects_a_source_off_the_seed_fiber(self):
        # retract keeps the seed's source, so no iterate can reach another one
        p, pairs = self._solved_robot_pairs(1)
        bk = p.backend
        _, h = pairs[0]
        x = np.asarray(bk.source(h), dtype=float) + np.array([1e-3, 0.0])
        with pytest.raises(ChartInversionFailed, match="source"):
            dg.chi_inverse(p, x, bk.target(h), seed=h)

    def test_chart_inversion_without_convergence_is_chart_inversion_failed(self, monkeypatch):
        p, pairs = self._solved_robot_pairs(1)
        bk = p.backend
        _, h = pairs[0]
        seed = bk.retract(h, 1e-3 * np.ones(bk.fiber_dim))
        monkeypatch.setattr(dg, "CHART_INVERSION_MAX_ITERS", 0)
        with pytest.raises(ChartInversionFailed, match="no convergence"):
            dg.chi_inverse(p, bk.source(h), bk.target(h), seed)

    def test_singular_anchor_restriction_is_chart_inversion_failed(self, monkeypatch):
        p, pairs = self._solved_robot_pairs(1)
        g, h = pairs[0]

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(ChartInversionFailed,
                           match="anchor restricted to the distribution is singular"):
            dg.chaplygin_residual(p, g, h)

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
        rows = pb.residual_at(p, g, hp)[: p.r]
        assert np.max(np.abs(red)) > 1e-2
        assert np.max(np.abs(rows)) > 1e-2

    # only the robot's distribution has the rank of its base (a complement
    # of the vertical directions)
    @pytest.mark.parametrize("name", sorted(set(md.FACTORIES) - {"mobile_robot"}))
    def test_rejects_systems_without_reduction_structure(self, name):
        p = _factory(name)
        g = p.initial_builder(STARTS[name])
        h = sv.step(p, g).next
        with pytest.raises(ValueError):
            dg.chaplygin_residual(p, g, h)
