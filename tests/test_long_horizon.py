"""Long horizons and sampled starts: every step either lands on the
constraint set with a residual at max(tol, floor), or the run fails.

Each system runs LONG_STEPS steps from its acceptance start (the ball the
20000 steps of the acceptance suite's roll), and SLOW_STEPS under the
``slow`` marker (``pytest -m slow``), plus two variants whose defaults
leave Newton idle (Suslov with a rotated inertia and the robot with an offset
center of mass: at their defaults every step is uniform motion and converges
at the first guess).  The particle and Veselova, the two systems that used to
stop for spurious reasons (roundoff in the particle's 1/h^2-scaled rows, a
Veselova guard against small rotations), also run SAMPLED_RUNS sampled states
for SAMPLED_STEPS steps each.
"""

import numpy as np
import pytest
from test_golden import GOLDEN_STEPS, STARTS, golden_run
from test_models import ROTATED_J

import nhmech.models as md
import nhmech.solver as sv

LONG_STEPS = 2000
SLOW_STEPS = 5000
SAMPLED_RUNS = 20
SAMPLED_STEPS = 200
PHI_TOL = 1e-9


def assert_every_step_trusted(p, traj):
    """max|phi| <= PHI_TOL on every element and each step's residual at its
    stopping level max(tol, floor), flagged floor_limited when above tol."""
    tol = sv.SolverOptions().tol_residual
    assert max(float(np.abs(p.phi(g)).max()) for g in traj.elements) <= PHI_TOL
    for res in traj.results:
        assert res.residual_norm <= max(tol, res.floor)
        assert res.floor_limited == (res.residual_norm > tol)


def assert_run_from_acceptance_start(name, steps):
    # stepping is sequential, so continuing the golden run from its last
    # element is one run of the given number of steps
    p, head = golden_run(name)
    tail = sv.evolve(p, head.elements[-1], steps - GOLDEN_STEPS)
    assert tail.n_steps == steps - GOLDEN_STEPS
    assert_every_step_trusted(p, head)
    assert_every_step_trusted(p, tail)


@pytest.mark.parametrize("name", sorted(set(STARTS) - {"rolling_ball"}))
def test_long_run_from_acceptance_start(name):
    assert_run_from_acceptance_start(name, LONG_STEPS)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(set(STARTS) - {"rolling_ball"}))
def test_slow_run_from_acceptance_start(name):
    assert_run_from_acceptance_start(name, SLOW_STEPS)


def test_ball_long_run(ball_run):
    assert_every_step_trusted(*ball_run)


def test_floor_limited_steps(ball_run):
    # the particle's 1/h^2-scaled rows reach their roundoff floor within its
    # acceptance run (from step 284 on); the ball's residuals stay below tol
    _, particle = golden_run("constrained_particle")
    assert any(res.floor_limited for res in particle.results)
    assert not any(res.floor_limited for res in ball_run[1].results)


@pytest.mark.parametrize(
    "factory, start",
    [
        (lambda: md.make_suslov(J=ROTATED_J), STARTS["suslov"]),
        (lambda: md.make_mobile_robot(l=0.05), STARTS["mobile_robot"]),
    ],
    ids=["suslov-rotated_J", "mobile_robot-offset_l"],
)
def test_newton_active_variant_long_run(factory, start):
    p = factory()
    traj = sv.evolve(p, p.initial_builder(start), LONG_STEPS)
    assert max(res.iterations for res in traj.results) > 0
    assert_every_step_trusted(p, traj)


@pytest.mark.parametrize(
    "name, seed",
    [("constrained_particle", 7), ("veselova", 1), ("veselova", 7)],
)
def test_sampled_runs_complete(name, seed):
    p = md.FACTORIES[name]()
    for g0 in p.sample_states(np.random.default_rng(seed), SAMPLED_RUNS):
        traj = sv.evolve(p, g0, SAMPLED_STEPS)
        assert_every_step_trusted(p, traj)


def test_veselova_passes_near_the_identity():
    # sample 16 of seed 1 swings through a turning point, 3 - tr W ~ 4e-7;
    # the guard used to reject it there and the line search stalled at step 30
    p = md.make_veselova()
    g0 = p.sample_states(np.random.default_rng(1), 20)[16]
    traj = sv.evolve(p, g0, SAMPLED_STEPS)
    assert min(3.0 - np.trace(el[1]) for el in traj.elements) < 1e-6
    assert max(res.iterations for res in traj.results) <= 2
    assert min(min(res.sigma_min_left, res.sigma_min_right) for res in traj.results) > 39.0
    assert_every_step_trusted(p, traj)
