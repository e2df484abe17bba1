"""Machine-speed probe that scales wall times to a nominal host speed.

The host is shared: its speed flips between a fast and a slow state, about
1.8 times apart, on time scales from a fraction of a second to minutes (see
WORKLOADS.md, Machine), and process CPU time slows with it. A run therefore
times a short fixed kernel that does not use ``liouville`` before and after
every operation, and scales the operation's wall time by ``NOMINAL_MS`` over
the mean of the probes around it: the figures are wall times at the speed
at which the probe takes ``NOMINAL_MS``. A change to the package does not change
the probe, so it moves the scaled figures as it moves the raw ones.

The kernel mixes a Python loop over small numpy arrays (like the solver's
step loop and the cell quadrature) with whole-array work on an 8k vector
(like the Green function on a grid).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

NOMINAL_MS = 1.0
_VECTOR = np.linspace(0.0, 1.0, 1 << 13)


def probe_ms() -> float:
    start = time.perf_counter()
    y = np.zeros(8)
    for _ in range(100):
        k = np.exp(-y) * 1e-3
        y = y + 0.5 * k + 0.25 * (k * k)
        float(np.sqrt(np.mean(k * k)))
    a = _VECTOR
    for _ in range(4):
        a = np.cos(a) + np.exp(-a)
    return 1e3 * (time.perf_counter() - start)


def factor(*probes: float) -> float:
    """``NOMINAL_MS`` over the mean of the probes taken around a wall time."""
    return NOMINAL_MS * len(probes) / sum(probes)


class Probes:
    """Probes taken between operations, with their start times."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        self.spent = 0.0  # seconds spent probing

    def take(self) -> None:
        self.times.append(time.perf_counter())
        self.ms.append(probe_ms())
        self.spent += self.ms[-1] / 1e3

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a wall time spent in [t0, t1]: the probes that start
        within one duration of it on either side, at least the two around it."""
        width = t1 - t0
        lo = bisect.bisect_left(self.times, t0 - width)
        hi = bisect.bisect_right(self.times, t1 + width)
        before = bisect.bisect_left(self.times, t0) - 1
        lo = max(0, min(lo, before))
        hi = max(hi, bisect.bisect_left(self.times, t1) + 1)
        return factor(*self.ms[lo:hi])
