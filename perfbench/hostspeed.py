"""Timing that corrects for the speed of a shared host.

On a shared machine the same code runs at different speeds from one
second to the next: a fixed pure-Python kernel was seen to take anywhere
from half to 1.3 times its usual time as neighbours came and went.  A stage
of several seconds then reads 20 to 45% apart between runs, which hides
any change smaller than that.

``Stopwatch.time`` runs a stage while a wall-clock interval timer fires
every ``PERIOD_S``.  Each tick runs a fixed probe, a few hundred
Fraction operations that do not depend on the program under test, and
records how long it took.  The stage's work in *reference seconds* is

    ref_s = wall_s * REF_PROBE_S * mean(1 / probe_s)

where ``wall_s`` excludes the probes' own time.  Ticks are uniform in
wall time, so ``mean(1 / probe_s)`` is the host's mean speed over the
stage, and ``ref_s`` is how long the stage would take with every probe
lasting ``REF_PROBE_S``: the host's speed cancels and the program's does
not.  Making the program do less work lowers ``ref_s`` in full.

One probe also runs before the timer starts, so a stage shorter than a
tick still has a speed sample.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# a probe's duration at the reference speed: its usual duration on the
# 2-vCPU Xeon host this benchmark was tuned on while a neighbour was busy
REF_PROBE_S = 0.5e-3

clock = time.perf_counter


def _probe():
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return s


class Stopwatch:
    def __init__(self):
        self._probes = []

    def _tick(self, signum=None, frame=None):
        t = clock()
        _probe()
        self._probes.append((t, clock() - t))

    def time(self, fn, *args):
        """Run ``fn(*args)``; return ``(result, wall_s, ref_s, probes)``."""
        self._probes = []
        self._tick()
        old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            t0 = clock()
            result = fn(*args)
            t1 = clock()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, old)
        # probes that ran inside the stage were timed with it
        inside = [d for t, d in self._probes if t0 <= t < t1]
        wall = t1 - t0 - sum(inside)
        speed = statistics.fmean(1.0 / d for _, d in self._probes)
        return result, wall, wall * REF_PROBE_S * speed, len(self._probes)
