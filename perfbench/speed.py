"""Machine-speed probe: timings scaled to a reference speed.

The benchmark shares a few cores of a host with other work, and the speed
of one core drifts by up to two-fold over seconds and minutes whatever the
benchmark does.  Raw timings of the same code then spread between runs by
more than any bound worth keeping.  So every timed operation is followed
by a probe: a fixed piece of pure-Python work (Fraction arithmetic and dict
stores, the same kind of work leibniz_lab does) that shares no code with
the program.  A timing is reported as

    seconds * REF_S / (median probe time around it)

that is, the time the operation would have taken on a machine where the
probe takes REF_S.  A change to the program moves the scaled figure as it
moves the raw one; a slow stretch of the machine moves both the operation
and the probes, and cancels out.  The garbage collector is off during a
probe, so a program that holds many objects cannot slow the probe itself.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# About the probe's time on the development machine in a fast stretch.
REF_S = 0.0015
# A sample is scaled by the median of the probes taken after the HALF
# samples before it, after it, and after the HALF samples that follow.
HALF = 5


def probe():
    """Seconds one fixed piece of work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        s = Fraction(0)
        d = {}
        for i in range(1, 500):
            s += Fraction(i % 13 - 6, i % 97 + 1)
            d[(i % 31, s.denominator % 7)] = s.numerator & 1023
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def burst(k):
    """k probes in a row."""
    return [probe() for _ in range(k)]


def scale(seconds, probes):
    """`seconds` at the reference speed, the machine's speed read from `probes`."""
    return seconds * REF_S / statistics.median(probes)


def scale_series(seconds, probes):
    """Scale a series of timings; probes[i] was taken right after seconds[i]."""
    n = len(seconds)
    return [
        scale(s, probes[max(0, i - HALF): min(n, i + HALF + 1)])
        for i, s in enumerate(seconds)
    ]
