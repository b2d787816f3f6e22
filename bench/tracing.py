"""Spans and step timing taken from outside the package.

Nothing here edits ``nhmech``: both recorders work by replacing module and
class attributes for the duration of a ``with patched(...)`` block, which
restores every original on exit.  Call sites inside the package look those
attributes up at call time (``sv.step``, ``pb.residual_at``, ``bk.retract``),
so the replacement sees every call.

* :class:`StepClock` times each ``solver.step`` call (and a reference
  kernel now and then); it is all that an untraced run adds.
* :class:`Tracer` records one span (name, start, end, parent, failed) per
  wrapped call and keeps them in flat arrays until the run ends.
"""

import contextlib
import dataclasses
import gzip
import json
import time
from array import array

import numpy as np


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class StepClock:
    """Wall time of every ``solver.step`` call, keyed by problem name, plus
    the Newton iterations of the steps that completed.

    With a ``probe``, the clock also times that fixed piece of work after a
    step whenever ``probe_interval`` seconds have passed since the last
    probe, so the run carries a steady sample of how fast the machine was
    while it stepped.  ``probe_total`` lets callers take probe time back out
    of the calls they time.
    """

    def __init__(self, probe=None, probe_interval=0.02):
        self.times = {}
        self.probes_before = {}
        self.completed = 0
        self.iterations = 0
        self.probe = probe
        self.probe_interval = probe_interval
        self.probes = []
        self.probe_total = 0.0
        self._next_probe = 0.0

    def wrap(self, step):
        def timed_step(p, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = step(p, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.times.setdefault(p.name, []).append(t1 - t0)
                self.probes_before.setdefault(p.name, []).append(len(self.probes))
                if self.probe is not None and t1 >= self._next_probe:
                    self._run_probe()
            self.completed += 1
            self.iterations += result.iterations
            return result

        return timed_step

    def _run_probe(self):
        t0 = time.perf_counter()
        self.probe()
        t1 = time.perf_counter()
        self.probes.append(t1 - t0)
        self.probe_total += t1 - t0
        self._next_probe = t1 + self.probe_interval

    def all_times(self):
        return [t for times in self.times.values() for t in times]


class Tracer:
    """In-memory span recorder.  A span's parent is the innermost wrapped
    call that was open when it started (-1 at top level)."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._open = [-1]

    def wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._open[-1])
            self.failed.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[idx] = 1
                raise
            finally:
                self.end[idx] = time.perf_counter()
                self._open.pop()

        return traced

    def wrap_problem(self, p):
        """Copy of problem ``p`` whose Lagrangian gradients count as
        ``models.grad`` and whose constraint callables count as ``models.phi``."""
        lag = p.lagrangian
        con = p.constraints

        def maybe(name, fn):
            return None if fn is None else self.wrap(name, fn)

        return dataclasses.replace(
            p,
            lagrangian=dataclasses.replace(
                lag,
                left_grad=maybe("models.grad", lag.left_grad),
                right_grad=maybe("models.grad", lag.right_grad),
            ),
            constraints=dataclasses.replace(
                con,
                phi=self.wrap("models.phi", con.phi),
                left_jac=maybe("models.phi", con.left_jac),
                right_jac=maybe("models.phi", con.right_jac),
            ),
        )

    def arrays(self):
        """Spans as numpy arrays: (name ids, parent, duration, failed)."""
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.end) - np.array(self.start),
            np.array(self.failed, dtype=bool),
        )

    def write(self, path, header):
        """Write a gzip text file: ``header`` as one JSON line, then one CSV
        line per span (times in seconds from the first span)."""
        columns = ["name", "parent", "start", "end", "failed"]
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, span_names=self.names, columns=columns)) + "\n")
            for nid, parent, start, end, failed in zip(
                self.name, self.parent, self.start, self.end, self.failed
            ):
                fh.write(f"{nid},{parent},{start - t0:.9f},{end - t0:.9f},{failed}\n")
