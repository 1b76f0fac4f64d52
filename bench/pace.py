"""The pace of the host: how fast it runs plain Python at each moment.

On a machine shared with other tenants the same code runs at different
speeds from one second to the next (on the 2-vCPU VM where the benchmark
was defined, two speeds about 1.6x apart, with no steal time, so CPU time
moved with wall time).  While items run, a timer signal runs a fixed probe
of stdlib arithmetic every ``INTERVAL`` seconds in the benchmark's own
thread.  An item's time is then rescaled by how fast the probes ran during
it: it becomes the time the item would take on a host where one probe
takes ``REFERENCE_S``.  The probe uses no superberezin code, so a change to
the program moves the rescaled times and a change of host pace does not.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02          # seconds between probes
REFERENCE_S = 0.0003     # one probe's time at the reference pace
NEAREST = 8              # probes that set the pace of a short item


def probe() -> Fraction:
    """Fixed work of the kind the program does: rationals, dicts, tuples."""
    total, counts = Fraction(0), {}
    for i in range(1, 80):
        total += Fraction(i % 7 - 3, i)
        key = (i % 31, i % 17)
        counts[key] = counts.get(key, 0) + i
    return total


class Pace:
    """Probe times sampled while the ``with`` block runs."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def own_seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1 less the probes that ran inside it.

        A probe runs whole between two bytecodes of the timed code, so it
        lies either inside the interval or outside it."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return t1 - t0 - math.fsum(self.durations[lo:hi])

    def reference_seconds(self, t0: float, t1: float) -> float:
        """``own_seconds`` at the reference pace.

        The pace is the mean probe speed over the probes inside the
        interval, or over the ``NEAREST`` probes around it when fewer ran
        inside: the time-weighted speed, since probes come at a fixed rate.
        """
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        if hi - lo < NEAREST:
            pad = math.ceil((NEAREST - (hi - lo)) / 2)
            lo, hi = max(0, lo - pad), min(len(self.ends), hi + pad)
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no pace probe ran near the interval")
        speed = statistics.fmean(REFERENCE_S / d for d in window)
        return self.own_seconds(t0, t1) * speed

    def median_probe_s(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0
