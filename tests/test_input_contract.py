"""Every input ends in a result or a typed error.

``cli.main`` on any config that parses as JSON returns 0 (success), 2
(config error) or 3 (solver failure): it raises nothing and lets no numpy
warning through, and a solver failure inside ``evolve`` names its step.
The configs are drawn for every system and command over the validated key
sets, with parameters and initial values taken from the edges of the float
range.  The configs that once ended in a traceback are pinned below.
"""

import contextlib
import inspect
import io
import json
import os
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nhmech import cli
from nhmech import models as md
from nhmech import solver as sv
from nhmech.errors import ConstraintViolationError, NhError

EDGES = [0.3, -0.7, 1, 3, 0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-150, 1e-20, 1e-5,
         1e5, 1e20, 1e150, -1e150, 1e300, 1.7e308, -1.7e308]

# the shape of each factory parameter and each initial key, per system
PARAMS = {
    "constrained_particle": {"h": ()},
    "suslov": {"J": (3, 3), "h": ()},
    "chaplygin_sleigh": {"m": (), "a": (), "b": (), "J": ()},
    "veselova": {"I": (3, 3), "m": (), "g": (), "l": (), "e": (3,), "h": ()},
    "rolling_ball": {"m": (), "r": (), "I": (), "Omega": (), "h": ()},
    "mobile_robot": {key: () for key in ("m0", "m1", "J", "J1", "R", "c", "l", "h")},
    "holonomic_sphere": {"h": ()},
}
INITIAL = {
    "constrained_particle": {"q0": (3,), "q1": (3,), "velocity": (2,)},
    "suslov": {"omega": (2,)},
    "chaplygin_sleigh": {"xi": (2,)},
    "veselova": {"gamma": (3,), "omega": (3,)},
    "rolling_ball": {"xy0": (2,), "xy1": (2,), "spin": ()},
    "mobile_robot": {"wheels0": (2,), "wheels1": (2,), "dphi": (), "dpsi": ()},
    "holonomic_sphere": {"q0": (3,), "q1": (3,), "velocity": (3,)},
}
EVOLVE = sv.evolve
COMMANDS = ("simulate", "check", "momentum")
CASES = [(name, command) for name in sorted(PARAMS) for command in COMMANDS]

# the first guess overflows the turn angle: sinc(inf) in the robot's phi
ROBOT = {
    "system": {"name": "mobile_robot", "params": {"J": 3.0, "R": 5e-324, "c": 1e300}},
    "initial": {"wheels0": [0.3, -0.2], "dphi": 1.7e308, "dpsi": -0.07},
    "steps": 3,
}
SUSLOV = {"system": {"name": "suslov"}, "initial": {"omega": [0.4, -0.3]}, "steps": 3}
NESTED = '{{"system": {{"name": "suslov"}}, "initial": {{"omega": {}0.4{}}}, "steps": 3}}'
PINNED = {
    "robot-simulate": ("simulate", ROBOT),
    "robot-check": ("check", dict(ROBOT, check={"samples": 2, "trajectory_steps": 2})),
    # a line-search trial point whose rotation overflows so3_exp
    "veselova-l-1e300": ("simulate", {
        "system": {"name": "veselova", "params": {"l": 1e300}},
        "initial": {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]},
        "steps": 3,
    }),
    # the sampler's so3_exp of an infinite rotation vector
    "suslov-check-h-1e300": ("check", {
        "system": {"name": "suslov", "params": {"h": 1e300}},
        "check": {"samples": 2, "trajectory_steps": 2},
    }),
    # an output name the file system refuses, found only after the whole run
    "nul-trajectory": ("simulate", dict(SUSLOV, outputs={"trajectory": "a\x00b.csv"})),
    "nul-summary": ("simulate", dict(SUSLOV, outputs={"summary": "a\x00b.json"})),
    "nul-report": ("check", dict(SUSLOV, outputs={"report": "a\x00b.json"},
                                 check={"samples": 2, "trajectory_steps": 2})),
    # an initial value nested deeper than the config's copy (500 levels) or
    # the JSON decoder (100,000 levels) can recurse: the config file's text
    "nested-500": ("simulate", NESTED.format("[" * 500, "]" * 500)),
    "nested-100000": ("simulate", NESTED.format("[" * 100_000, "]" * 100_000)),
}

# the pinned configs that the config parser refuses, with its message
REFUSED = {
    **{f"nul-{key}": f"outputs.{key} must be a plain file name"
       for key in ("trajectory", "summary", "report")},
    "nested-500": "nests its values too deeply",
    "nested-100000": "nests its values too deeply",
}


def run(command, data):
    """(exit code, stderr, warnings, errors out of ``evolve``) of
    ``nhmech <command>`` on ``data`` (a JSON document, or the text of the
    config file), with every warning recorded."""
    raised = []

    def evolve(*args):
        try:
            return EVOLVE(*args)
        except NhError as exc:
            raised.append(exc)
            raise

    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            if isinstance(data, str):
                fh.write(data)
            else:
                json.dump(data, fh)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(sv, "evolve", evolve), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path, "--out", out])
    return code, err.getvalue(), caught, raised


def assert_contract(command, data):
    code, err, caught, raised = run(command, data)
    assert not caught, [str(w.message) for w in caught]
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_SOLVER), err
    for exc in raised:
        if exc.step_index is None:  # the start's constraint check, before any step
            assert isinstance(exc, ConstraintViolationError) and code == cli.EXIT_CONFIG, err
        else:
            assert code == cli.EXIT_SOLVER and f" at step {exc.step_index}: " in err, err
    return code, err


def values(shape):
    edge = st.sampled_from(EDGES)
    if shape == ():
        return edge
    if shape == (3, 3):  # symmetric, so that it reaches past the symmetry test
        diagonal = st.lists(edge, min_size=3, max_size=3)
        return st.tuples(diagonal, st.sampled_from([0.0, *EDGES])).map(
            lambda d: [[d[0][0], d[1], 0.0], [d[1], d[0][1], 0.0], [0.0, 0.0, d[0][2]]]
        )
    return st.lists(edge, min_size=shape[0], max_size=shape[0])


def sections(keys):
    """Dicts over a subset of ``keys`` (a key-to-shape dict)."""
    return st.fixed_dictionaries({}, optional={key: values(shape) for key, shape in keys.items()})


@st.composite
def configs(draw, name, command):
    data = {"system": {"name": name, "params": draw(sections(PARAMS[name]))}, "steps": 3}
    if command != "check" or draw(st.booleans()):
        data["initial"] = draw(sections(INITIAL[name]))
    if command == "check":
        points = draw(st.lists(sections(INITIAL[name]), max_size=1))
        data["check"] = {"samples": 2, "trajectory_steps": 2, "points": points}
    return data


def assert_drawn_configs(name, command, examples):
    @settings(derandomize=True, database=None, deadline=None, max_examples=examples,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configs(name, command))
    def check(data):
        assert_contract(command, data)

    check()


def test_tables_name_every_key():
    for name, factory in md.FACTORIES.items():
        assert set(PARAMS[name]) == set(inspect.signature(factory).parameters)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_config_ends_in_a_typed_exit(case):
    command, data = PINNED[case]
    code, err = assert_contract(command, data)
    assert code != cli.EXIT_OK, err


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_pinned_config_is_a_config_error(case):
    code, err = assert_contract(*PINNED[case])
    assert code == cli.EXIT_CONFIG and REFUSED[case] in err, err


@pytest.mark.parametrize("name, command", CASES)
def test_drawn_config_ends_in_a_typed_exit(name, command):
    assert_drawn_configs(name, command, 12)


@pytest.mark.slow
@pytest.mark.parametrize("name, command", CASES)
def test_many_drawn_configs_end_in_a_typed_exit(name, command):
    assert_drawn_configs(name, command, 400)
