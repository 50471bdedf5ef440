"""Track the host's speed with a fixed reference loop.

On a shared host the same code runs 1.5-2x slower for tens of seconds
at a time, then fast again.  Process CPU time slows as much as wall
time, and a tight integer loop slows too, so the whole core is shared,
not just memory.  Such stretches outlast a run, and no statistic taken
inside one run can remove them.

``HostSpeed`` runs a fixed loop that does not touch radialma at most
every ``EVERY_S`` seconds, between item visits.  Half of the loop is
interpreter arithmetic, tuple and dict allocation and a small numpy
sweep; the other half is method calls on a piecewise-linear function,
because pure-Python call-heavy code slows more under contention than
arithmetic does.  ``scale()`` returns ``NOMINAL_S`` over the median of
the last ``WINDOW`` reference times.  A wall time multiplied by it reads
as the time the same work takes while the reference loop runs at
``NOMINAL_S``: on the 2-vCPU Xeon host the benchmark was built on, that
is about the loop's uncontended time, so there the scaled times are
close to the uncontended wall times.  A change to radialma that leaves
the host's speed alone moves the scaled times in the same proportion as
the wall times.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time
from collections import deque

import numpy as np

NOMINAL_S = 5.0e-3
EVERY_S = 0.2
WINDOW = 3


class _Piecewise:
    """A piecewise-linear function looked up by bisection, method calls and
    tuple indexing: the pure-Python shape of most radialma work."""

    def __init__(self, knots):
        self.ts = tuple(t for t, _ in knots)
        self.vs = tuple(v for _, v in knots)

    def value(self, t: float) -> float:
        i = bisect.bisect_right(self.ts, t) - 1
        if i < 0:
            return self.vs[0] + (t - self.ts[0])
        if i >= len(self.ts) - 1:
            return self.vs[-1] + 2.0 * (t - self.ts[-1])
        return self._lerp(i, t)

    def _lerp(self, i: int, t: float) -> float:
        t0, t1 = self.ts[i], self.ts[i + 1]
        return self.vs[i] + (self.vs[i + 1] - self.vs[i]) * ((t - t0) / (t1 - t0))


_PIECEWISE = _Piecewise([(k * 0.25 - 8.0, (k * 0.25 - 8.0) * 0.5 + 0.01 * k * k)
                         for k in range(33)])
_POINTS = [-9.0 + 0.0015 * k for k in range(6400)]


def reference_work() -> float:
    """About half interpreter arithmetic, allocation and a small numpy
    sweep, and half method calls on a piecewise-linear function."""
    s = 0
    for i in range(20000):
        s += i * i % 7
    pairs = {i: (float(i), i * 0.5) for i in range(6000)}
    acc = float(s) + sum(v[1] for v in pairs.values())
    v = np.linspace(-1.0, 0.0, 601)
    odd = np.arange(1, 600, 2)
    for _ in range(40):
        old = v[odd]
        v[odd] = np.minimum(-0.5, old + 1.5 * (0.5 * (v[odd - 1] + v[odd + 1]) - old))
    f = _PIECEWISE
    return acc + float(v.sum()) + max(f.value(t) for t in _POINTS)


def probe() -> float:
    """Wall time of one reference loop.

    The collector is off while it runs: a collection would scan the
    objects radialma keeps alive, and the scale would then depend on the
    code under test.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.samples: list[float] = []
        self.last = float("-inf")
        probe()  # the first loop in a process pays numpy's first calls

    def scale(self) -> float:
        """NOMINAL_S over the recent reference time, probing when stale."""
        if time.perf_counter() - self.last >= EVERY_S:
            took = probe()
            self.last = time.perf_counter()
            self.recent.append(took)
            self.samples.append(took)
        return NOMINAL_S / statistics.median(self.recent)

    def summary(self) -> dict:
        s = sorted(self.samples)
        return {"reference_nominal_s": NOMINAL_S, "reference_probes": len(s),
                "reference_min_s": s[0], "reference_p50_s": statistics.median(s),
                "reference_max_s": s[-1]}
