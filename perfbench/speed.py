"""Reference seconds: wall time corrected for the speed of the core.

The 2-core machine this benchmark was tuned on (a KVM guest on an Intel
Xeon, Python 3.11) shares its cores with other tenants: the same code runs
up to 1.7 times slower, in spells from under a second to minutes, so the raw
wall times of runs a few minutes apart spread by 15-30%.

``SampledClock`` therefore measures the speed of the core while an
operation runs. An interval timer interrupts the operation every PERIOD_S
seconds and runs a fixed probe that does not depend on slacksvm; a few more
probes run right after it. The probes' own time is taken out of the
operation's wall time, and the rest is rescaled by their mean duration:

    t_ref = (t_wall - t_probes) * probe reference time / mean(probe durations)

A probe's reference time is its mean duration inside a solve on an
uncontended core of that machine, so reference seconds read as wall seconds
there. The probe should slow down as the workload does: the mixed probe
suits numpy-heavy solves, the interpreter probe interpreter-bound ones. On
five seeds per workload this cut the spread of the median solve time between
runs from 16-30% to 2-6%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01
AFTER_PROBES = 5

_rng = np.random.default_rng(12345)
_FLOATS = _rng.standard_normal(4000)
_A = np.array([0, 3, 7], dtype=np.int64)
_B = np.array([1, 3, 9], dtype=np.int64)


def _scale(x):
    return x * 0.5 + 1.0


def _interpreter_probe() -> float:
    """Interpreter work: a loop of float arithmetic and function calls."""
    s = 0.0
    for i in range(1000):
        s += _scale(float(i))
    return s


def _mixed_probe() -> float:
    """Selection, masks and sums over 4000 floats; numpy calls on 3-element
    arrays, which cost their call overhead; and interpreter work."""
    s = 0.0
    for _ in range(2):
        s += float(np.partition(_FLOATS, 2000)[2000])
        s += float(_FLOATS[_FLOATS < 0.1].sum())
    for _ in range(8):
        s += float(np.intersect1d(_A, _B, assume_unique=True).sum())
    return s + _interpreter_probe()


# Each probe with its mean duration inside a solve on an uncontended core.
PROBES = {"mixed": (_mixed_probe, 0.00026), "interpreter": (_interpreter_probe, 0.00009)}


class SampledClock:
    """Times calls in wall and reference seconds (see the module doc)."""

    def __init__(self, probe: str):
        self._probe, self._ref_s = PROBES[probe]
        self._samples = []
        self.factors = []  # mean probe time / its reference time, per call

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._probe()
        self._samples.append(time.perf_counter() - t0)

    def call(self, fn, *args):
        """(result, wall seconds, reference seconds) of fn(*args); the wall
        seconds exclude the probes that ran inside the call."""
        gc.collect()
        self._samples.clear()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= sum(self._samples)
        for _ in range(AFTER_PROBES):
            self._sample()
        factor = statistics.fmean(self._samples) / self._ref_s
        self.factors.append(factor)
        return result, wall, wall / factor
