"""Benchmark of the nhmech step solver: end-to-end metrics, correctness gates
and an optional per-layer trace.

Usage (from the repository root):

    python3 bench/run.py --workload ball_cli --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --smoke

Workloads (``--workload all`` runs each in turn):

* ``ball_cli``: ``nhmech simulate`` on the README rolling-ball config, called
  in-process through ``nhmech.cli.main``.  The heaviest step (n = 5, two
  Newton iterations per step), and the only workload that drives the CLI
  output layer and ``diagnostics.momentum_drift``.  The seed does not change
  this workload.
* ``systems_long``: one warm-started ``solver.evolve`` per built-in system
  from the acceptance initial states; all four backends and both Lie groups.
  Suslov and the robot take no Newton iterations, so their steps are pure
  per-step overhead.  The constrained particle stops at step 284 with
  ``NoConvergenceError`` (a known defect), so 1 of 7 operations fails.
* ``check_sweep``: ``nhmech check`` through ``cli.main`` for all seven
  systems over seeded sampled states: the same regularity and Newton-matrix
  code as a step, but from cold states.

A run repeats whole rounds of its workload until ``--seconds`` have passed
(at least one round).  End-to-end metrics, in the last stdout line with
``--trace 0``:

* ``step_ms_p50``: median ``solver.step`` time, averaged over the systems
  the workload steps;
* ``steps_per_s``: completed steps per second of step time;
* ``wall_s``: median over rounds of the time in the user-facing calls
  (``cli.main`` or ``evolve``);
* ``ok_share``: operations (one trajectory or one ``check`` run) that ended
  without an ``NhError`` and passed every correctness gate, over those tried;
* ``setup_s``: median over SETUP_REPEATS, taken after the measured rounds,
  of a fresh import of the package plus building the workload's problems,
  states and configs;
* ``peak_rss_mb``: peak resident memory of the process up to the end of the
  measured rounds.

The readable report before that line also gives ``step_ms_p99`` (pooled over
systems) and ``fail_share``, each metric's sample count, every correctness
gate's measured value against its bound, and the trajectory fingerprints
(final states at 17 significant digits; a report digest for ``check``).

Times are reported at reference-machine speed.  Co-tenants slow a shared
machine by up to about 2x for seconds to minutes at a time, wall and CPU
time alike.  So while it steps, the run also times a fixed reference kernel
every PROBE_INTERVAL seconds, and each step is divided by the slowness the
nearest probes measured (a round's wall time by the ratio its own steps
got, set-up by probes taken either side of it).  The report prints every
time as measured too.

``--trace 1`` measures the run the same way, then runs one more round with
the public functions of every layer wrapped in spans from outside the
package (see ``tracing.py``), and prints per-layer metrics instead: ``.us``
is the median microseconds per call (traced, so nested calls add their
tracing cost), ``.per_step`` calls per completed step, ``share.*`` the split
of step time between its phases, ``trace.overhead_s`` the traced round's
wall time less the untraced median, both at reference speed.  The spans are written to ``bench/out``.
"""

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time


def cap_blas_threads():
    """Cap the BLAS thread pools at nproc; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


BLAS_THREADS = cap_blas_threads()

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
from scipy.linalg import lapack  # noqa: E402

from tracing import StepClock, Tracer, patched  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("ball_cli", "systems_long", "check_sweep")
SYSTEMS = (
    "constrained_particle",
    "suslov",
    "chaplygin_sleigh",
    "veselova",
    "rolling_ball",
    "mobile_robot",
    "holonomic_sphere",
)
# Acceptance initial states (tests/test_acceptance.py).
INITIAL = {
    "constrained_particle": {"q0": [0.2, -0.4, 0.1], "q1": [0.25, -0.35, 0.08125]},
    "suslov": {"omega": [0.4, -0.3]},
    "chaplygin_sleigh": {"xi": [0.7, 0.9]},
    "veselova": {"gamma": [0.2, -0.3, 0.93], "omega": [0.9, -0.4, 0.0]},
    "rolling_ball": {"xy0": [0.99, 1.0], "xy1": [1.0, 0.99], "spin": 0.0},
    "mobile_robot": {"wheels0": [0.3, -0.2], "dphi": 0.12, "dpsi": -0.07},
    "holonomic_sphere": {"q0": [0.0, 0.0, 1.0], "velocity": [0.4, -0.3, 0.0]},
}
BALL_PARAMS = {"m": 1.0, "r": 1.0, "I": 0.4, "Omega": 1.0, "h": 0.01}
# Reversibility classes the check command must report.
REVERSIBLE = {"suslov": True, "chaplygin_sleigh": True, "rolling_ball": False, "veselova": False}

LAYERS = ("liegroup", "groupoid", "problem", "solver", "models", "diagnostics", "cli")

GATE_TOL = 1e-9  # path, oracle and constraint gates
CLOSED_FORM_STEPS = 1000

FULL = {"ball_steps": 1000, "system_steps": 400, "check_samples": 40, "check_steps": 25}
# Long enough to reach every code path, too short for the particle defect.
SMOKE = {"ball_steps": 20, "system_steps": 5, "check_samples": 2, "check_steps": 3}
SETUP_REPEATS = 25

# Median time of reference_kernel on an idle 2-vCPU Intel Xeon (the machine
# the bounds were set on).  Timings are reported at that machine speed.
REF_SECONDS = 0.9e-3
PROBE_INTERVAL = 0.02
LOCAL_PROBES = 5
TRACE_PROBES = 9

# The metrics of the result line and their units.  step_ms_p99 and fail_share
# are printed too but left out of it: step_ms_p99 hangs on a few seed-dependent
# hard steps in check_sweep, and fail_share is 0 where nothing fails (ok_share
# carries the same count).
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
END_TO_END = [m["name"] for m in _SPEC["end_to_end"]]
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


def reference_kernel(loops=120):
    """Fixed work, made of the same small numpy and scalar operations as a
    step, whose time tracks how fast the (shared) machine runs right now."""
    w = np.array([0.1, -0.2, 0.3])
    R = np.eye(3)
    acc = 0.0
    for i in range(loops):
        W = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
        R = R @ (np.eye(3) + 0.01 * W)
        acc += float(np.linalg.norm(R[0])) + 0.5 * i
    return acc


def load_package():
    """Import nhmech from this checkout's ``src`` (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "nhmech", "__init__.py")):
        sys.exit(f"bench: no nhmech sources under {SRC}")
    sys.path.insert(0, SRC)
    import nhmech.cli  # noqa: F401  (pulls in every module)

    if os.path.dirname(os.path.dirname(os.path.abspath(nhmech.__file__))) != SRC:
        sys.exit(f"bench: nhmech imported from {nhmech.__file__}, not from {SRC}")
    return nhmech


def environment():
    """Machine and library versions the timings were taken with."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass

    def blas_version(mod):
        try:
            return mod.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError, TypeError):
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(np),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": BLAS_THREADS,
        "isolation": "none (no CPU pinning, no cgroup limits; shared machine)",
    }


# ---------------------------------------------------------------------------
# set-up


def fresh_import():
    """Import the package afresh in this process.  Its dependencies (numpy,
    scipy) stay loaded; the modules in use are put back afterwards."""

    def ours():
        return [k for k in sys.modules if k == "nhmech" or k.startswith("nhmech.")]

    in_use = {k: sys.modules.pop(k) for k in ours()}
    try:
        importlib.import_module("nhmech.cli")
    finally:
        for k in ours():
            del sys.modules[k]
        sys.modules.update(in_use)


def probe_slowness(count=3):
    """Slowness right now: median of a few reference-kernel runs."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_SECONDS


def timed_setup(workload):
    """Median set-up time (a fresh import of the package plus the workload's
    problems, initial states and config files) at reference speed, and the
    same as timed."""
    scaled, timed = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = probe_slowness()
        t0 = time.perf_counter()
        fresh_import()
        workload.setup()
        seconds = time.perf_counter() - t0
        # the set-up is short, so the probes either side of it bracket its speed
        slow = 0.5 * (before + probe_slowness())
        scaled.append(seconds / slow)
        timed.append(seconds)
    return statistics.median(scaled), statistics.median(timed)


# ---------------------------------------------------------------------------
# correctness gates


class Gates:
    """Worst measured value per gate; an operation fails on any breach."""

    def __init__(self):
        self.worst = {}
        self.bounds = {}
        self.breaches = 0

    def check(self, name, value, bound):
        value = float(value)
        self.bounds[name] = bound
        self.worst[name] = max(self.worst.get(name, value), value)
        ok = value <= bound
        self.breaches += not ok
        return ok

    def expect(self, name, ok):
        return self.check(name, 0.0 if ok else 1.0, 0.0)


def fingerprint(p, g):
    return " ".join(format(float(v), ".17g") for v in p.to_row(g))


def contact_path(elements):
    return np.vstack([np.asarray(elements[0][0], dtype=float)]
                     + [np.asarray(e[1], dtype=float) for e in elements])


def gate_trajectory(nh, gates, label, p, trajectory, initial):
    """Gates shared by every solved trajectory; True when all pass."""
    els = trajectory.elements
    ok = gates.check(f"{label}.max_phi", max(float(np.max(np.abs(p.phi(g)))) for g in els),
                     GATE_TOL)
    if p.name == "rolling_ball":
        path = contact_path(els)[: CLOSED_FORM_STEPS + 2]
        closed = nh.models.closed_form_ball(p.params, initial["xy0"], initial["xy1"],
                                            len(path) - 1)
        ok &= gates.check(f"{label}.closed_form", np.max(np.abs(path - closed)), GATE_TOL)
    if p.name == "holonomic_sphere":
        ok &= gates.check(f"{label}.projection_oracle",
                          np.max(np.abs(contact_path(els) - sphere_oracle(els[0], len(els) - 1))),
                          GATE_TOL)
    return ok


def sphere_oracle(g0, n_steps):
    """Textbook projection scheme on the unit sphere, independent of nhmech:
    a free step, then a radial correction solving the length constraint."""
    q_prev = np.asarray(g0[0], dtype=float)
    q_cur = np.asarray(g0[1], dtype=float)
    out = [q_prev, q_cur]
    for _ in range(n_steps):
        free = 2.0 * q_cur - q_prev
        b = float(free @ q_cur)
        c = float(free @ free) - 1.0
        lam = -c / (b + np.sqrt(b * b - c))
        q_prev, q_cur = q_cur, free + lam * q_cur
        out.append(q_cur)
    return np.vstack(out)


def legendre_gap(nh, p, trajectory):
    sv = nh.solver
    return max(
        (float(np.max(np.abs(sv.legendre_plus(p, g).components
                             - sv.legendre_minus(p, nxt).components)))
         for g, nxt in zip(trajectory.elements, trajectory.elements[1:])),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# workloads


def since(clock, t0, probed0):
    """Seconds since ``t0`` less the probe time the clock spent since then."""
    return time.perf_counter() - t0 - (clock.probe_total - probed0)


def call_cli(nh, clock, argv):
    """``nhmech.cli.main`` in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        probed0, t0 = clock.probe_total, time.perf_counter()
        code = nh.cli.main(argv)
        seconds = since(clock, t0, probed0)
    return code, out.getvalue(), err.getvalue(), seconds


class Round:
    """One pass over a workload: wall time of its user-facing calls, one
    (label, ok, note) per operation, and the fingerprints it produced."""

    def __init__(self):
        self.wall = 0.0
        self.steps = {}
        self.ops = []
        self.fingerprints = {}


class BallCli:
    name = "ball_cli"

    def __init__(self, nh, seed, size, workdir):
        self.nh = nh
        self.steps = size["ball_steps"]
        self.workdir = workdir
        self.initial = INITIAL["rolling_ball"]

    def setup(self):
        config = {
            "system": {"name": "rolling_ball", "params": BALL_PARAMS},
            "initial": self.initial,
            "steps": self.steps,
            "solver": {"tol_residual": 1e-10, "max_iters": 50},
            "outputs": {"trajectory": "ball.csv", "summary": "summary.json", "format": "csv"},
        }
        path = os.path.join(self.workdir, "ball.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        # what cli.main will build from the config, timed here as set-up
        p = self.nh.models.make_rolling_ball(**BALL_PARAMS)
        p.initial_builder(self.initial)
        return ["simulate", "--config", path, "--out", self.workdir]

    def round(self, argv, gates, wrap_problem, clock):
        nh = self.nh
        captured = []

        def capture(evolve):
            def capturing(*args, **kwargs):
                captured.append(evolve(*args, **kwargs))
                return captured[-1]
            return capturing

        rnd = Round()
        with patched([(nh.solver, "evolve", capture(nh.solver.evolve))]):
            code, out, err, rnd.wall = call_cli(nh, clock, argv)
        if code != 0:
            rnd.ops.append(("rolling_ball", False, err.strip()))
            return rnd
        summary = json.loads(out)
        traj = captured[0]
        ok = gates.expect("ball_cli.summary_steps", summary["steps"] == self.steps)
        ok &= gates.check("ball_cli.summary_max_phi", summary["max_constraint_violation"],
                          GATE_TOL)
        with open(os.path.join(self.workdir, "ball.csv"), encoding="utf-8") as fh:
            ok &= gates.expect("ball_cli.csv_rows", sum(1 for _ in fh) == self.steps + 2)
        ok &= gate_trajectory(nh, gates, "ball_cli", traj.problem, traj, self.initial)
        rnd.fingerprints["rolling_ball"] = fingerprint(traj.problem, traj.elements[-1])
        rnd.ops.append(("rolling_ball", ok, ""))
        return rnd


class SystemsLong:
    name = "systems_long"

    def __init__(self, nh, seed, size, workdir):
        self.nh = nh
        self.steps = size["system_steps"]

    def setup(self):
        md = self.nh.models
        problems = {}
        for name in SYSTEMS:
            p = md.FACTORIES[name]()
            problems[name] = (p, p.initial_builder(INITIAL[name]))
        return problems

    def round(self, problems, gates, wrap_problem, clock):
        nh = self.nh
        bound = 10.0 * nh.solver.SolverOptions().tol_residual
        rnd = Round()
        for name, (p, g0) in problems.items():
            p = wrap_problem(p)
            probed0, t0 = clock.probe_total, time.perf_counter()
            try:
                traj = nh.solver.evolve(p, g0, self.steps)
            except nh.NhError as exc:
                rnd.wall += since(clock, t0, probed0)
                note = f"{type(exc).__name__} at step {exc.step_index}"
                rnd.fingerprints[name] = note
                rnd.ops.append((name, False, note))
                continue
            rnd.wall += since(clock, t0, probed0)
            ok = gate_trajectory(nh, gates, name, p, traj, INITIAL[name])
            ok &= gates.check(f"{name}.legendre_gap", legendre_gap(nh, p, traj), bound)
            rnd.fingerprints[name] = fingerprint(p, traj.elements[-1])
            rnd.ops.append((name, ok, ""))
        return rnd


class CheckSweep:
    name = "check_sweep"

    def __init__(self, nh, seed, size, workdir):
        self.nh = nh
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self):
        md = self.nh.models
        argvs = {}
        for name in SYSTEMS:
            # what the check command will build and sample, timed here as set-up
            p = md.FACTORIES[name]()
            p.sample_states(np.random.default_rng(self.seed), self.size["check_samples"])
            config = {
                "system": {"name": name},
                "initial": INITIAL[name],
                "check": {"samples": self.size["check_samples"], "seed": self.seed,
                          "trajectory_steps": self.size["check_steps"]},
                "outputs": {"report": f"{name}_check.json"},
            }
            path = os.path.join(self.workdir, f"{name}_check_config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            argvs[name] = ["check", "--config", path, "--out", self.workdir]
        return argvs

    def round(self, argvs, gates, wrap_problem, clock):
        rnd = Round()
        for name, argv in argvs.items():
            code, out, err, seconds = call_cli(self.nh, clock, argv)
            rnd.wall += seconds
            if code != 0:
                rnd.ops.append((name, False, err.strip()))
                continue
            report = json.loads(out)
            ok = gates.expect(f"{name}.all_points_regular", report["all_points_regular"])
            ok &= gates.expect(f"{name}.legendre_matched", report["legendre_matching"]["matched"])
            if name in REVERSIBLE:
                ok &= gates.expect(f"{name}.reversible_is_{REVERSIBLE[name]}",
                                   report["reversible"] == REVERSIBLE[name])
            digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
            rnd.fingerprints[name] = "report sha256 " + digest[:32]
            rnd.ops.append((name, ok, ""))
        return rnd


WORKLOAD_CLASSES = {cls.name: cls for cls in (BallCli, SystemsLong, CheckSweep)}


# ---------------------------------------------------------------------------
# measurement


def measure(nh, workload, state, seconds, gates, wrap_problem=lambda p: p, probe=True):
    """Whole rounds until ``seconds`` have passed (at least one), with every
    ``solver.step`` call timed and, with ``probe``, the reference kernel
    timed every PROBE_INTERVAL seconds of stepping."""
    clock = StepClock(reference_kernel if probe else None, PROBE_INTERVAL)
    rounds = []
    with patched([(nh.solver, "step", clock.wrap(nh.solver.step))]):
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            first = {system: len(t) for system, t in clock.times.items()}
            rnd = workload.round(state, gates, wrap_problem, clock)
            rnd.steps = {system: slice(first.get(system, 0), len(t))
                         for system, t in clock.times.items()}
            rounds.append(rnd)
    return clock, rounds


def slowness(clock):
    """How much slower than the reference machine this run's machine was:
    the median reference-kernel time over REF_SECONDS."""
    return float(np.median(clock.probes)) / REF_SECONDS


def step_times(clock, system):
    """Step times of one system, each divided by the slowness the probes
    measured around it (median of the LOCAL_PROBES probes nearest in time)."""
    probes = np.asarray(clock.probes) / REF_SECONDS
    half = LOCAL_PROBES // 2
    padded = np.pad(probes, half, mode="edge")
    local = np.median(np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1), axis=1)
    idx = np.clip(np.asarray(clock.probes_before[system]), 0, len(probes) - 1)
    return np.asarray(clock.times[system]) / local[idx]


def wall_at_reference(clock, rounds):
    """Median wall time of a round at reference speed.  A round's calls ran
    at the slowness its steps saw: their time as timed over their time at
    reference speed."""
    times = {s: step_times(clock, s) for s in clock.times}
    return statistics.median(
        r.wall * sum(np.sum(times[s][k]) for s, k in r.steps.items())
        / sum(np.sum(clock.times[s][k]) for s, k in r.steps.items())
        for r in rounds
    )


def end_to_end(clock, rounds, setup, peak_rss_mb):
    """Report rows (name, value, unit, sample count, value as timed).  Times
    are divided by the slowness the probes measured, so they read as on the
    reference machine."""
    raw = np.array(clock.all_times())
    times = {s: step_times(clock, s) for s in clock.times}
    pooled = np.concatenate(list(times.values()))
    ops = [op for rnd in rounds for op in rnd.ops]
    ok = sum(op[1] for op in ops) / len(ops)
    # Systems differ several-fold in step cost, so the median of the pooled
    # steps would sit wherever the middle system falls; average the
    # per-system medians instead (the plain median for one system).
    p50 = float(np.mean([np.median(t) for t in times.values()]))
    p50_raw = float(np.mean([np.median(t) for t in clock.times.values()]))
    p99 = float(np.percentile(pooled, 99))
    setup_s, setup_timed = setup
    return [
        ("step_ms_p50", 1e3 * p50, "ms", len(pooled), 1e3 * p50_raw),
        ("step_ms_p99", 1e3 * p99, "ms", int(np.sum(pooled > p99)),
         1e3 * float(np.percentile(raw, 99))),
        ("steps_per_s", clock.completed / float(np.sum(pooled)), "1/s", clock.completed,
         clock.completed / float(np.sum(raw))),
        ("wall_s", wall_at_reference(clock, rounds), "s", len(rounds),
         statistics.median(r.wall for r in rounds)),
        ("ok_share", ok, "ratio", len(ops), None),
        ("fail_share", 1.0 - ok, "ratio", len(ops), None),
        ("setup_s", setup_s, "s", SETUP_REPEATS, setup_timed),
        ("peak_rss_mb", peak_rss_mb, "MB", 1, None),
    ]


def layer_metrics(tracer, clock, untraced_clock, overhead_s):
    """Per-layer metrics from the spans of one traced round."""
    name, parent, dur, failed = tracer.arrays()
    ids = {n: i for i, n in enumerate(tracer.names)}
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    # A backend that delegates to an inner backend (Atiyah -> Lie group)
    # records the inner call as a same-name child; count the outer call only.
    outer = parent_name != name
    steps = max(clock.completed, 1)
    child_sum = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))

    def is_(n):
        return name == ids.get(n, -2)

    def calls(n):
        return is_(n) & outer

    def median(values, scale=1.0):
        return scale * float(np.median(values)) if len(values) else 0.0

    m = {}

    def per_call(span):
        m[f"{span}.us"] = median(dur[calls(span)], 1e6)
        m[f"{span}.per_step"] = float(np.sum(calls(span))) / steps

    for f in ("so3_exp", "so3_log", "se2_exp", "se2_log"):
        per_call(f"liegroup.{f}")
    for f in ("retract", "compose", "coords", "cross_form"):
        per_call(f"groupoid.{f}")
    for f in ("residual_at", "newton_jacobian_fd", "regularity_matrices", "lagrange_multipliers"):
        per_call(f"problem.{f}")
    is_step = is_("solver.step")
    m["solver.step.self_us"] = median((dur - child_sum)[is_step], 1e6)
    m["solver.step.per_step"] = float(np.sum(is_step)) / steps
    per_call("solver.point_regularity_sigmas")
    m["solver.lu.us"] = (median(dur[is_("solver.lu_factor")], 1e6)
                         + median(dur[is_("solver.dgecon")], 1e6))
    m["solver.lu.per_step"] = float(np.sum(is_("solver.lu_factor"))) / steps
    m["solver.newton_iters.per_step"] = clock.iterations / steps
    # Each Newton iteration evaluates the residual once per trial point, so
    # trials beyond the first are backtracks; ``step`` also evaluates the
    # starting residual once.
    in_done_step = has_parent & is_step[np.maximum(parent, 0)] & ~failed[np.maximum(parent, 0)]
    trials = int(np.sum(in_done_step & is_("problem.residual_at")))
    m["solver.backtracks.per_step"] = (trials - clock.completed - clock.iterations) / steps
    per_call("models.grad")
    per_call("models.phi")
    untraced = np.concatenate([step_times(untraced_clock, s) for s in untraced_clock.times])
    m["solver.step_ms_p99"] = 1e3 * float(np.percentile(untraced, 99))
    for system in SYSTEMS:
        stepped = system in untraced_clock.times
        m[f"models.{system}.step_ms_p50"] = (
            median(step_times(untraced_clock, system), 1e3) if stepped else 0.0)
    m["diagnostics.regularity_report.us"] = median(dur[is_("diagnostics.regularity_report")], 1e6)
    m["diagnostics.reversibility_report.s"] = median(dur[is_("diagnostics.reversibility_report")])
    m["diagnostics.momentum_drift.s"] = median(dur[is_("diagnostics.momentum_drift")])
    m["diagnostics.swallowed_step_failures"] = float(np.sum(
        is_step & failed & (parent_name == ids.get("diagnostics.reversibility_report", -2))))
    is_main = is_("cli.main")
    out_child = is_("cli.output") & has_parent
    out_sum = np.bincount(parent[out_child], weights=dur[out_child], minlength=len(dur))
    m["cli.output.s"] = median(out_sum[is_main])
    main_total = float(np.sum(dur[is_main]))
    evolve_in_main = is_("solver.evolve") & (parent_name == ids.get("cli.main", -2))
    m["cli.evolve.share"] = float(np.sum(dur[evolve_in_main])) / main_total if main_total else 0.0
    # Self-time split of a step: each direct child of a step span goes to
    # its phase; the step's own time and unlisted children are "other".
    phases = {
        "solver.point_regularity_sigmas": "regularity",
        "problem.newton_jacobian_fd": "newton_matrix",
        "solver.lu_factor": "lu",
        "solver.dgecon": "lu",
        "problem.residual_at": "line_search",
        "groupoid.retract": "line_search",
        "problem.lagrange_multipliers": "multipliers",
    }
    step_child = has_parent & is_step[np.maximum(parent, 0)]
    step_total = float(np.sum(dur[is_step]))
    shares = {}
    for span, phase in phases.items():
        shares[phase] = shares.get(phase, 0.0) + float(np.sum(dur[step_child & is_(span)]))
    shares["other"] = step_total - sum(shares.values())
    for phase, seconds in shares.items():
        m[f"share.{phase}"] = seconds / step_total if step_total else 0.0
    # Self time of each layer (span time not covered by its child spans)
    # over the time of the top-level calls.
    self_time = dur - child_sum
    layer = np.array([n.split(".", 1)[0] for n in tracer.names])[name]
    top_total = float(np.sum(dur[~has_parent]))
    for prefix in LAYERS:
        m[f"self.{prefix}"] = float(np.sum(self_time[layer == prefix])) / top_total
    m["trace.overhead_s"] = overhead_s
    return m


def tracer_patches(nh, tracer):
    """Replacements that wrap the public functions of every layer in spans."""
    lg, gpd, pb, sv, dg, cli = (nh.liegroup, nh.groupoid, nh.problem, nh.solver,
                                nh.diagnostics, nh.cli)
    reps = []

    def add(owner, attr, span):
        reps.append((owner, attr, tracer.wrap(span, getattr(owner, attr))))

    for f in ("so3_exp", "so3_log", "se2_exp", "se2_log"):
        add(lg, f, f"liegroup.{f}")
    for cls in (gpd.PairGroupoid, gpd.LieGroupGroupoid, gpd.ActionGroupoid, gpd.AtiyahGroupoid):
        for f in ("retract", "compose", "coords"):
            add(cls, f, f"groupoid.{f}")
    add(gpd, "cross_form", "groupoid.cross_form")
    for f in ("residual_at", "newton_jacobian_fd", "regularity_matrices", "lagrange_multipliers"):
        add(pb, f, f"problem.{f}")
    for f in ("step", "evolve", "point_regularity_sigmas"):
        add(sv, f, f"solver.{f}")
    add(scipy.linalg, "lu_factor", "solver.lu_factor")
    add(lapack, "dgecon", "solver.dgecon")
    for f in ("regularity_report", "reversibility_report", "momentum_drift"):
        add(dg, f, f"diagnostics.{f}")
    # the file output of simulate/check: the table build and each atomic write
    add(cli, "trajectory_table", "cli.output")
    add(cli, "_atomic_write", "cli.output")
    add(cli, "main", "cli.main")
    build = cli.build_problem
    reps.append((cli, "build_problem", lambda cfg: tracer.wrap_problem(build(cfg))))
    return reps


# ---------------------------------------------------------------------------
# reporting


def run_workload(nh, env, args, size):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOAD_CLASSES[args.workload](nh, args.seed, size, workdir)
        state = workload.setup()
        gates = Gates()
        clock, rounds = measure(nh, workload, state, args.seconds, gates)
        # before the set-up repeats, whose fresh imports each keep some memory
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        prints = rounds[0].fingerprints
        drift = sum(rnd.fingerprints != prints for rnd in rounds)
        gates.expect("rounds_reproduce_fingerprints", drift == 0)
        lines = [f"environment {json.dumps(env, sort_keys=True)}"]
        if args.trace:
            tracer = Tracer()
            with patched(tracer_patches(nh, tracer)):
                # probes inside the traced round would land in its spans, so
                # the probes either side of it give its speed
                before = probe_slowness(TRACE_PROBES)
                t_clock, t_rounds = measure(nh, workload, state, 0.0, gates, tracer.wrap_problem,
                                           probe=False)
                t_slow = 0.5 * (before + probe_slowness(TRACE_PROBES))
            gates.expect("traced_fingerprints_match", t_rounds[0].fingerprints == prints)
            overhead = t_rounds[0].wall / t_slow - wall_at_reference(clock, rounds)
            values = layer_metrics(tracer, t_clock, clock, overhead)
            metrics = {k: (v, UNITS[k]) for k, v in values.items()}
            rounds = rounds + t_rounds
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(path, {"workload": args.workload, "seed": args.seed,
                                "environment": env, "fingerprints": prints})
            lines.append(f"spans {len(tracer.start)} written to {os.path.relpath(path, ROOT)}")
            lines += [f"{k:42s} {v:.6g} {u}" for k, (v, u) in metrics.items()]
        else:
            rows = end_to_end(clock, rounds, timed_setup(workload), peak_rss_mb)
            metrics = {name: (v, UNITS[name]) for name, v, _, _, _ in rows if name in END_TO_END}
            lines.append(f"slowness {slowness(clock):.4f} (median of {len(clock.probes)} "
                         f"reference-kernel probes / {REF_SECONDS * 1e3:g} ms)")
            for name, v, unit, n, timed in rows:
                as_timed = "" if timed is None else f", as timed {timed:.6g} {unit}"
                lines.append(f"{name:14s} {v:.6g} {unit}  (n={n}{as_timed})")
        ops = [op for rnd in rounds for op in rnd.ops]
        failed = [op for op in ops if not op[1]]
        for label, _, note in failed:
            if note:
                lines.append(f"failed {label}: {note}")
        for gate, worst in sorted(gates.worst.items()):
            verdict = "ok" if worst <= gates.bounds[gate] else "BREACH"
            lines.append(f"gate {gate:44s} {worst:.3e} / bound {gates.bounds[gate]:.0e} {verdict}")
        lines += [f"fingerprint {k} {v}" for k, v in prints.items()]
        print(f"# nhmech bench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={int(args.trace)} rounds={len(rounds)}")
        print("\n".join(lines))
        result = {
            "correct": gates.breaches == 0,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny round per workload, to keep the harness working")
    args = parser.parse_args(argv)
    nh = load_package()
    env = environment()
    size = SMOKE if args.smoke else FULL
    if args.smoke:
        args.seconds = 0.0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        run_workload(nh, env, args, size)
    return 0


if __name__ == "__main__":
    sys.exit(main())
