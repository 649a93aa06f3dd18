"""Host-speed probe: corrects timings for contention from other tenants.

On a shared two-vCPU virtual machine the same pure-Python work runs at two
speeds, switching every few seconds (measured: 0.60 s vs 1.03 s for one fixed
Fraction loop).  Raw wall times then swing by a third between runs.  The probe
runs a fixed ~0.2 ms Fraction and dict workload from a SIGALRM handler every
INTERVAL_S seconds in the measuring process itself, so each timed interval
carries samples of the speed the host gave it.

`corrected(t0, t1)` is the interval's wall time minus the probe's own time
inside it, scaled by REFERENCE_S / median probe duration over the interval
widened by PAD_S on each side (the speed switches over seconds, and a short
job holds too few samples of its own).  The median keeps one preempted probe
from rescaling every job around it, and the probe runs with the garbage
collector off, so a collection that the program's allocations are due is
paid by the program, inside its own timing, not by the probe.  REFERENCE_S is the probe's duration
at the uncontended speed of a shared 2-vCPU Intel Xeon VM with Python 3.11.7, so
a corrected time is what the interval would have taken at that speed.  It is
a fixed constant, not taken from the run, because a run can spend all of its
time at the slow speed.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
PAD_S = 0.25
REFERENCE_S = 180e-6


def _work():
    x = Fraction(1, 3)
    seen = {}
    for i in range(60):
        x = x * Fraction(i + 1, i + 2) + 1
        seen[(i, i + 1)] = x
    return x


class Probe:
    """Context manager that samples host speed while it is active."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick delayed past the next one; keep samples disjoint
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _work()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)
        if collecting:
            gc.enable()
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _slice(self, t0, t1):
        return self.durations[bisect.bisect_left(self.starts, t0):
                              bisect.bisect_right(self.starts, t1)]

    def window(self, t0, t1):
        """(probe seconds spent inside [t0, t1], median probe duration over
        [t0 - PAD_S, t1 + PAD_S])."""
        around = self._slice(t0 - PAD_S, t1 + PAD_S)
        return sum(self._slice(t0, t1)), statistics.median(around)

    def corrected(self, t0, t1):
        overhead, median = self.window(t0, t1)
        return (t1 - t0 - overhead) * REFERENCE_S / median
