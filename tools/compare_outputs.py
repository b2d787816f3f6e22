"""Run one fixed set of CLI configs under two source trees and compare every
output byte for byte.

Usage: python tools/compare_outputs.py A_SRC B_SRC

A_SRC and B_SRC are ``src`` directories (each holds the ``nhmech``
package).  The config set is, for each built-in system from its acceptance
start (``count_calls.STARTS``): ``simulate`` with a csv and with a json
trajectory and ``momentum``, each of 1,500 steps; ``check`` at seeds 0 and
7 (40 samples, 25 trajectory steps); and ``simulate`` on the README's
rolling-ball config (20,000 steps).

Each tree runs in one worker process (``python compare_outputs.py --worker
ROOT`` with the tree on ``PYTHONPATH``), which imports nhmech once and runs
each config in a forked child, so every run starts from the same fresh
state, as ``nhmech`` does from the shell: ``cli.main`` on the config
``config.json`` and the output directory ``out``, both relative to the
run's directory, with stdout and stderr sent to files.  A run that raises
out of ``cli.main`` prints its traceback and exits 1.  The workers run with
one BLAS thread (``OPENBLAS_NUM_THREADS=1``, ``OMP_NUM_THREADS=1``), so the
process that forks has no other thread; the step's matrices are too small
for BLAS to split, so this changes no result.

Every run whose exit code, stdout, stderr or written files differ is
printed with the parts that differ; the status is 1 on any difference, else
0.  There is no tolerance: equal means equal bytes.  Standard library only
(nhmech and its dependencies in the workers).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from count_calls import README_BALL, STARTS  # noqa: E402

STEPS = 1500
BALL_STEPS = 20000  # the README's
CHECK_SEEDS = (0, 7)
CHECK = {"samples": 40, "trajectory_steps": 25}


def runs(steps, ball_steps):
    """[(label, command, config)] of the fixed config set."""
    out = []
    for name, start in STARTS.items():
        base = {"system": {"name": name}, "initial": start, "steps": steps}
        for fmt in ("csv", "json"):
            out.append((f"simulate-{fmt}/{name}", "simulate",
                        dict(base, outputs={"format": fmt})))
        out.append((f"momentum/{name}", "momentum", base))
        for seed in CHECK_SEEDS:
            out.append((f"check-seed{seed}/{name}", "check",
                        {"system": {"name": name}, "initial": start,
                         "check": dict(CHECK, seed=seed)}))
    out.append(("simulate/readme-ball", "simulate", dict(README_BALL, steps=ball_steps)))
    return out


def run_dir(root, label):
    return os.path.join(root, label.replace("/", "__"))


def worker(root):
    """Run every config under ``root`` (one directory per run, holding
    ``argv.json`` and ``config.json``) in a forked child; each leaves
    ``stdout``, ``stderr``, ``code`` and its ``out`` directory."""
    from nhmech import cli

    tasks = "/proc/self/task"  # Linux lists the process's threads here
    if os.path.isdir(tasks) and len(os.listdir(tasks)) > 1:
        raise SystemExit("compare_outputs: the worker must be single-threaded to fork")
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        with open(os.path.join(path, "argv.json"), encoding="utf-8") as fh:
            argv = json.load(fh)
        pid = os.fork()
        if pid == 0:  # the child never returns into this loop
            code = 1
            try:
                os.chdir(path)
                for fd, name in ((1, "stdout"), (2, "stderr")):
                    os.dup2(os.open(name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        with open(os.path.join(path, "code"), "w", encoding="utf-8") as fh:
            fh.write(str(os.waitstatus_to_exitcode(status)))


def execute(src, root, config_set):
    """Write ``config_set`` under ``root`` and run it under the tree ``src``."""
    for label, command, config in config_set:
        path = run_dir(root, label)
        os.makedirs(path)
        with open(os.path.join(path, "config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        with open(os.path.join(path, "argv.json"), "w", encoding="utf-8") as fh:
            json.dump([command, "--config", "config.json", "--out", "out"], fh)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", root],
                   env=env, check=True)


def outputs(path):
    """{part: bytes} of one run: its code, stdout, stderr and each file it wrote."""
    parts = {}
    for name in ("code", "stdout", "stderr"):
        with open(os.path.join(path, name), "rb") as fh:
            parts[name] = fh.read()
    out = os.path.join(path, "out")
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            parts[f"file {name}"] = fh.read()
    return parts


def compare(first_src, second_src, steps=STEPS, ball_steps=BALL_STEPS):
    """Print each run whose outputs differ between the two trees, with
    ``steps`` steps per system and ``ball_steps`` for the README ball;
    returns the exit status (see the module docstring)."""
    config_set = runs(steps, ball_steps)
    with tempfile.TemporaryDirectory() as tmp:
        roots = [os.path.join(tmp, side) for side in ("a", "b")]
        for src, root in zip((first_src, second_src), roots):
            os.makedirs(root)
            execute(src, root, config_set)
        differ = 0
        for label, _, _ in config_set:
            a, b = (outputs(run_dir(root, label)) for root in roots)
            parts = [part for part in sorted(set(a) | set(b)) if a.get(part) != b.get(part)]
            if parts:
                differ += 1
                print(f"{label}: {', '.join(parts)} differ")
    print(f"{len(config_set)} runs, {differ} differ")
    return 1 if differ else 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--worker"]:
        worker(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", help="first src tree (A_SRC)")
    parser.add_argument("second", help="second src tree (B_SRC)")
    args = parser.parse_args(argv)
    return compare(args.first, args.second)


if __name__ == "__main__":
    sys.exit(main())
