"""End-to-end acceptance suite: one test per shipped guarantee.

Each test is numbered and self-contained; the conftest hook prints a
pass/fail line per criterion at the end of the run.  Tolerances here are the
shipped ones, not the (much smaller) values the implementation actually
achieves; the suite does not record the measured margins.
"""

import numpy as np
import pytest

from conftest import BALL_INITIAL, BALL_PARAMS, newton_tail_is_quadratic
from nhmech import diagnostics as dg
from nhmech import liegroup as lg
from nhmech import models as md
from nhmech import problem as pb
from nhmech import solver as sv
from nhmech.errors import SingularError

PARTICLE_INITIAL = {"q0": [0.2, -0.4, 0.1], "q1": [0.25, -0.35, 0.08125]}
ROBOT_INITIAL = {"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07}
VESELOVA_INITIAL = {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]}
SLEIGH_INITIAL = {"xi": [0.7, 0.9]}

_ROT = lg.so3_exp(np.array([0.3, -0.2, 0.4]))
ROTATED_J = _ROT @ np.diag([1.0, 2.0, 3.0]) @ _ROT.T


def contact_path(trajectory):
    """Contact point sequence q_0 .. q_{n+1} from a ball trajectory of pairs."""
    first = np.asarray(trajectory.elements[0][0], dtype=float)
    rest = [np.asarray(e[1], dtype=float) for e in trajectory.elements]
    return np.vstack([first] + rest)


def test_criterion_01_ball_matches_closed_form(ball_run):
    """1000 solved steps reproduce the closed-form contact path to 1e-9 per
    step, and the closed form's velocity-advance map is a rotation."""
    _, trajectory = ball_run
    path = contact_path(trajectory)[:1002]
    closed = md.closed_form_ball(BALL_PARAMS, BALL_INITIAL["xy0"], BALL_INITIAL["xy1"], 1001)
    assert np.max(np.abs(path - closed)) <= 1e-9

    d0 = closed[1] - closed[0]
    d1 = closed[2] - closed[1]
    theta = np.arctan2(d0[0] * d1[1] - d0[1] * d1[0], float(d0 @ d1))
    A = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert np.max(np.abs(A.T @ A - np.eye(2))) <= 1e-14
    increments = np.diff(path, axis=0)
    assert np.max(np.abs(increments[1:] - increments[:-1] @ A.T)) <= 1e-9


def test_criterion_02_ball_circle_property(ball_run):
    """Over 20000 steps the contact speed is constant to relative 1e-10 and
    the path is a circle to 1e-6 of its radius (least-squares fit)."""
    _, trajectory = ball_run
    path = contact_path(trajectory)
    increments = np.diff(path, axis=0)
    speeds = np.linalg.norm(increments, axis=1) / BALL_PARAMS["h"]
    assert (speeds.max() - speeds.min()) / speeds.mean() <= 1e-10

    x, y = path[:, 0], path[:, 1]
    design = np.column_stack([2.0 * x, 2.0 * y, np.ones(len(x))])
    (a, b, d), *_ = np.linalg.lstsq(design, x * x + y * y, rcond=None)
    radius = np.sqrt(d + a * a + b * b)
    radial_dev = np.abs(np.hypot(x - a, y - b) - radius)
    assert radial_dev.max() <= 1e-6 * radius


def test_criterion_03_particle_identities():
    """Particle trajectories satisfy both difference equations and the
    constraint to 1e-10, conserve the y-momentum to 1e-10, satisfy the
    momentum evolution identity to 1e-9, and the step refuses the known
    degenerate configuration."""
    p = md.make_constrained_particle(h=0.01)
    trajectory = sv.evolve(p, p.initial_builder(PARTICLE_INITIAL), 100)
    for g, nxt in zip(trajectory.elements, trajectory.elements[1:]):
        (x0, y0, z0), (x1, y1, z1) = g
        x2, y2, z2 = nxt[1]
        assert abs((x2 - 2 * x1 + x0) + y1 * (z2 - 2 * z1 + z0)) <= 1e-10
        assert abs(y2 - 2 * y1 + y0) <= 1e-10
        assert abs((z2 - z1) - 0.5 * (y2 + y1) * (x2 - x1)) <= 1e-10

    spec_y = p.momentum_specs["y_translation"]
    values = [dg.momentum_value(p, spec_y, g) for g in trajectory.elements]
    assert np.ptp(values) <= 1e-10

    spec_plane = p.momentum_specs["plane_translations"]
    (drift,) = dg.momentum_drift(p, [spec_plane], trajectory)
    for measured, predicted in drift:
        assert abs(measured - predicted) <= 1e-9

    degenerate = p.initial_builder({"q0": [0.0, -3.0, 0.0], "q1": [1.0, 1.0, -1.0]})
    with pytest.raises(SingularError):
        sv.step(p, degenerate)


LEGENDRE_RUNS = [
    ("constrained_particle", lambda: md.make_constrained_particle(h=0.01), PARTICLE_INITIAL),
    ("holonomic_sphere", lambda: md.make_holonomic_sphere(h=0.01),
     {"q0": [0.0, 0.0, 1.0], "velocity": [0.4, -0.3, 0.0]}),
    ("suslov_diagonal", md.make_suslov, {"omega": [0.4, -0.3]}),
    ("suslov_rotated", lambda: md.make_suslov(J=ROTATED_J), {"omega": [0.4, -0.3]}),
    ("chaplygin_sleigh", md.make_chaplygin_sleigh, SLEIGH_INITIAL),
    ("veselova", md.make_veselova, VESELOVA_INITIAL),
    ("rolling_ball", md.make_rolling_ball,
     {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.3}),
    ("mobile_robot", md.make_mobile_robot, ROBOT_INITIAL),
]


def test_criterion_04_legendre_matching_everywhere():
    """On every accepted step of every built-in system the outgoing and
    incoming discrete momenta match to ten times the solver tolerance."""
    options = sv.SolverOptions()
    bound = 10.0 * options.tol_residual
    for label, factory, initial in LEGENDRE_RUNS:
        p = factory()
        trajectory = sv.evolve(p, p.initial_builder(initial), 15, options)
        for g, nxt in zip(trajectory.elements, trajectory.elements[1:]):
            plus = sv.legendre_plus(p, g)
            minus = sv.legendre_minus(p, nxt)
            gap = float(np.max(np.abs(plus.components - minus.components)))
            assert gap <= bound, f"{label}: matching gap {gap:.3e}"


def test_criterion_05_reversibility_classification():
    """Suslov and the sleigh pass all three reversibility checks to 1e-8,
    including the solve-invert-solve loop on 20 sampled points; Veselova's
    Lagrangian is not inversion symmetric; the ball's constraint set is not
    inversion invariant."""
    for name in ("suslov", "chaplygin_sleigh"):
        p = md.FACTORIES[name]()
        samples = p.sample_states(np.random.default_rng(11), 20)
        report = dg.reversibility_report(p, samples)
        assert report.lagrangian_symmetric and report.max_lagrangian_defect <= 1e-8
        assert report.constraint_invariant and report.max_constraint_defect <= 1e-8
        assert report.dynamics_reversible and report.max_dynamics_defect <= 1e-8
        for g in samples:
            forward = sv.step(p, g).next
            back = sv.step(p, p.backend.invert(forward)).next
            assert p.backend.distance(back, p.backend.invert(g)) <= 1e-8

    veselova = md.make_veselova()
    report = dg.reversibility_report(
        veselova, veselova.sample_states(np.random.default_rng(11), 20)
    )
    assert not report.lagrangian_symmetric
    assert report.max_lagrangian_defect > 1e-8

    ball = md.make_rolling_ball()
    report = dg.reversibility_report(ball, ball.sample_states(np.random.default_rng(11), 20))
    assert not report.constraint_invariant
    assert report.max_constraint_defect > 1e-8


def test_criterion_06_lie_group_momentum_form():
    """Along Suslov and sleigh trajectories, the change of the right momentum
    across a step equals its adjoint transport up to constraint forces: the
    defect annihilates the admissible directions to 1e-9 and expands over the
    annihilator with exactly the solver's multipliers."""
    runs = [
        (md.make_suslov(J=ROTATED_J), {"omega": [0.4, -0.3]}, lambda g, xi: g @ xi),
        (md.make_chaplygin_sleigh(), SLEIGH_INITIAL, lg.se2_Ad),
    ]
    for p, initial, adjoint in runs:
        trajectory = sv.evolve(p, p.initial_builder(initial), 10)
        for idx, result in enumerate(trajectory.results):
            g1, g2 = trajectory.elements[idx], result.next
            defect = np.array(
                [p.d_right(g2, e) - p.d_right(g1, adjoint(g1, e)) for e in np.eye(3)]
            )
            x = p.backend.target(g2)
            B = np.asarray(p.distribution.basis(x), dtype=float)
            assert float(np.max(np.abs(defect @ B))) <= 1e-9
            A = np.asarray(p.distribution.annihilator(x), dtype=float)
            lam, *_ = np.linalg.lstsq(A, -defect, rcond=None)
            assert np.max(np.abs(lam - result.multipliers)) <= 1e-9


def test_criterion_07_regularity_and_newton_tail():
    """The two-point form is nondegenerate at the identity configurations of
    the four Lie-group-flavoured systems, and the Newton residual tails
    contract quadratically."""
    identity_runs = [
        (md.make_suslov(), {"omega": [0.4, -0.3]}),
        (md.make_chaplygin_sleigh(), SLEIGH_INITIAL),
        (md.make_veselova(), VESELOVA_INITIAL),
        (md.make_mobile_robot(), ROBOT_INITIAL),
    ]
    for p, initial in identity_runs:
        g = p.initial_builder(initial)
        at_identity = p.backend.identity(p.backend.source(g))
        report = dg.regularity_report(p, at_identity)
        assert report.left_nondegenerate, p.name
        assert report.right_nondegenerate, p.name
        assert report.jacobian_condition < 1e6, p.name

    # The sleigh pairing stays nondegenerate while the offset combination is
    # bounded away from zero; it vanishes exactly at the known locus.
    sleigh = md.make_chaplygin_sleigh()
    m, a, J = sleigh.params["m"], sleigh.params["a"], sleigh.params["J"]
    locus = -2.0 * (a * a * m + J) / (a * m)
    assert dg.regularity_report(sleigh, np.array([0.0, 1.0, 0.0])).left_nondegenerate
    assert not dg.regularity_report(sleigh, np.array([0.0, locus, 0.0])).left_nondegenerate

    tight = sv.SolverOptions(tol_residual=1e-13)
    tail_runs = [
        (md.make_chaplygin_sleigh(), SLEIGH_INITIAL),
        (md.make_veselova(), VESELOVA_INITIAL),
    ]
    for p, initial in tail_runs:
        result = sv.step(p, p.initial_builder(initial), tight)
        assert len(result.residual_history) >= 3, p.name
        assert newton_tail_is_quadratic(result.residual_history), p.name


def action_derivative(p, g, nxt, direction, t=1e-4):
    """Independent two-term action derivative under an admissible variation.

    The middle point of the pair (g, nxt) is moved along ``direction`` using
    only backend primitives: the first element flows along the left-invariant
    field, the second is pre-composed with a short inverse arc so the pair
    stays exactly composable.  Central difference in the curve parameter.
    """
    bk = p.backend
    L = p.lagrangian.eval
    e = bk.identity(bk.target(g))

    def total(s):
        g_s = bk.retract(g, s * direction)
        nxt_s = bk.compose(bk.invert(bk.retract(e, s * direction)), nxt)
        return L(g_s) + L(nxt_s)

    return (total(t) - total(-t)) / (2.0 * t)


def test_criterion_08_action_variation_oracle():
    """For every system, 50 random solved pairs are critical points of the
    two-term action under 50 random admissible variations each, and the
    oracle derivative agrees with the assembled difference rows to 1e-6."""
    for name in sorted(md.FACTORIES):
        p = md.FACTORIES[name]()
        rng = np.random.default_rng(0)
        for g in p.sample_states(rng, 50):
            nxt = sv.step(p, g).next
            B = np.asarray(p.distribution.basis(p.backend.target(g)), dtype=float)
            for _ in range(50):
                direction = B @ rng.normal(size=B.shape[1])
                direction /= np.linalg.norm(direction)
                oracle = action_derivative(p, g, nxt, direction)
                row = p.d_left(g, direction) - p.d_right(nxt, direction)
                assert abs(oracle) <= 1e-6, name
                assert abs(oracle - row) <= 1e-6, name


def test_criterion_09_chaplygin_reduction():
    """Robot steps satisfy the reduced wheel equations to 1e-7, and the
    reduced residual vanishes exactly when the full residual does."""
    p = md.make_mobile_robot()
    trajectory = sv.evolve(p, p.initial_builder(ROBOT_INITIAL), 6)
    pairs = list(zip(trajectory.elements, trajectory.elements[1:]))
    for g, nxt in pairs:
        assert float(np.max(np.abs(dg.chaplygin_residual(p, g, nxt)))) <= 1e-7

    # Equivalence on a sample: solved pairs sit at zero on both routes,
    # perturbations in every fiber direction are seen by both routes.
    candidates = list(pairs)
    bk = p.backend
    g, nxt = pairs[0]
    for kick in range(bk.fiber_dim):
        u = np.zeros(bk.fiber_dim)
        u[kick] = 1e-2
        candidates.append((g, bk.retract(nxt, u)))
    for cand_g, cand_h in candidates:
        reduced = float(np.max(np.abs(dg.chaplygin_residual(p, cand_g, cand_h))))
        full = float(np.max(np.abs(pb.residual_at(p, cand_g, cand_h))))
        assert (reduced <= 1e-8) == (full <= 1e-8)


def test_criterion_10_shake_special_case():
    """The holonomic sphere reproduces the textbook projection scheme: free
    step plus a radial correction solving the length constraint, written out
    here independently, to 1e-9 over 100 steps with the constraint at 1e-10."""
    p = md.make_holonomic_sphere(h=0.01)
    g0 = p.initial_builder({"q0": [0.0, 0.0, 1.0], "velocity": [0.4, -0.3, 0.0]})
    trajectory = sv.evolve(p, g0, 100)

    q_prev = np.asarray(g0[0], dtype=float)
    q_cur = np.asarray(g0[1], dtype=float)
    oracle = [q_prev.copy(), q_cur.copy()]
    for _ in range(100):
        free = 2.0 * q_cur - q_prev
        b = float(free @ q_cur)
        c = float(free @ free) - 1.0
        lam = -c / (b + np.sqrt(b * b - c))
        q_prev, q_cur = q_cur, free + lam * q_cur
        oracle.append(q_cur.copy())

    path = contact_path(trajectory)
    assert path.shape[0] == len(oracle)
    assert max(
        float(np.max(np.abs(path[i] - oracle[i]))) for i in range(len(oracle))
    ) <= 1e-9
    assert max(
        abs(float(e[1] @ e[1]) - 1.0) for e in trajectory.elements
    ) <= 1e-10
