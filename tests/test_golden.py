"""Golden trajectories: 400 steps of every built-in system from its acceptance
start, against final states recorded before the step solver called LAPACK
directly (17 significant digits).

A change to the solver, the kinetic forms or the kernels that moves a path
by more than GOLDEN_ATOL per coordinate fails here; larger moves must be
explained and the values re-recorded.  The constrained particle's final
state was recorded later, once the step stopped at its roundoff floor (see
``StepResult.floor``) instead of failing on roundoff in its 1/h^2-scaled rows.
Veselova's was re-recorded when the first guess became the backends'
closed-form ``mirror`` instead of a chart log then exp: each of its steps
takes two Newton iterations, its converged point depends on the first guess
inside the 1e-10 residual tolerance, and the final state moved 2.4e-12 with
the same iteration counts.  It was re-recorded again when ``evolve`` began
starting each step from a third-order prediction of its root: some steps
now stop after one correction, just inside the tolerance (over 2,000 steps
the 90th percentile of the final residual went from 2.9e-12 to 5.1e-11),
so the final state moved 7.8e-10.  The run stays as close to a reference
solved to the roundoff floor (``tol_residual=1e-16``) as that tolerance
allows: 3.5e-8 after 2,000 steps, against 9.8e-9 before.  It was
re-recorded once more when the prediction became the extrapolation of the
last four root displacements (4 d_1 - 6 d_2 + 4 d_3 - d_4): its mean Newton
iterations per step over 2,000 steps went from 1.72 to 1.22, so still more
steps stop after one correction just inside the tolerance, and the final
state moved 1.2e-9 (6.9e-8 after 2,000 steps).  Its distance from the
``tol_residual=1e-16`` reference after 2,000 steps rose from 3.5e-8 to
1.03e-7, and every step still meets the residual tolerance.  The rolling
ball's and the holonomic sphere's steps take one correction from the
prediction, and their final states stay within GOLDEN_ATOL (they moved
2.5e-13 and 9.0e-14 here).
"""

import functools

import numpy as np
import pytest

import nhmech.models as md
import nhmech.solver as sv

GOLDEN_STEPS = 400
GOLDEN_ATOL = 1e-12

STARTS = {
    "constrained_particle": {"q0": [0.2, -0.4, 0.1], "q1": [0.25, -0.35, 0.08125]},
    "suslov": {"omega": [0.4, -0.3]},
    "chaplygin_sleigh": {"xi": [0.7, 0.9]},
    "veselova": {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]},
    "rolling_ball": {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0},
    "mobile_robot": {"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07},
    "holonomic_sphere": {"q0": [0.0, 0.0, 1.0], "velocity": [0.4, -0.3, 0.0]},
}

# the element after GOLDEN_STEPS steps, as NhProblem.to_row
FINAL = {
    "constrained_particle": [
        4.5350863648991409, 19.599999999999607, 19.907518994056808,
        4.5378035331856772, 19.649999999999604, 19.960843421680085,
    ],
    "suslov": [
        0.9998875058592529, -0.0001499921876627426, -0.014998437548827398,
        -0.0001499921876627426, 0.99980001041644972, -0.01999791673176848,
        0.014998437548827398, 0.01999791673176848, 0.99968751627570263,
    ],
    "chaplygin_sleigh": [
        2.6911362027703944e-10, 0.84232950635731596, 1.1334115832617515e-10,
    ],
    "veselova": [
        -0.59076551256754839, 0.80355995108610645, -0.072715295306451724,
        0.99831904098331481, -0.019246224825044733, 0.054668777562131177,
        0.023068257986694467, 0.99726864704428542, -0.070164813802360337,
        -0.053169050053703704, 0.071307983090565699, 0.99603625619951408,
    ],
    "rolling_ball": [
        6.2202640146976309, -0.14434414325862283, 6.2335122147472868, -0.13939589150227297,
        0.99992997144258533, 0.00033932803824893734, 0.011829499875851752,
        0.00033932803824893854, 0.99835576339435073, -0.057320629390874726,
        -0.011829499875851752, 0.057320629390874726, 0.99828573483693606,
    ],
    "mobile_robot": [
        48.299999999999265, -28.200000000000109, 48.419999999999263, -28.27000000000011,
        -0.031666666666666732, -0.0024995821968746604, 3.9580025669973238e-05,
    ],
    "holonomic_sphere": [
        0.72743794146060148, -0.54557845609527411, -0.41614683654722101,
        0.72576426809486005, -0.54432320107096754, -0.42068810291305736,
    ],
}


@functools.cache
def golden_run(name):
    """The system and its GOLDEN_STEPS-step trajectory from STARTS[name]
    (the long-horizon suite continues it)."""
    p = md.FACTORIES[name]()
    return p, sv.evolve(p, p.initial_builder(STARTS[name]), GOLDEN_STEPS)


@pytest.mark.parametrize("name", sorted(FINAL))
def test_final_state_matches_golden(name):
    p, traj = golden_run(name)
    got = p.to_row(traj.elements[-1])
    assert got.shape == (len(FINAL[name]),)
    assert np.max(np.abs(got - np.array(FINAL[name]))) <= GOLDEN_ATOL
