"""Wall time normalised against a reference loop run between timed intervals.

Other load on a shared host slows a whole core by up to 1.9x for stretches
of seconds to minutes, and it slows the library and a pure-Python reference
loop alike, though not always by the same factor (in one stretch the
library slowed by 1.26x where the loop slowed by 1.6x).  So one ``Clock``
per run samples the loop at points where no timed work is in progress:
before and after every set-up, and between items at most every
``EVERY_S``.  The time between two samples is scaled by ``REF_S`` over the
mean duration of the ``NEAR`` samples around it, and time spent
sampling counts as zero.  Normalised times are seconds of an uncontended
core of the machine ``REF_S`` was taken on.  Several samples are averaged
because one can stray by up to 2x for tens of milliseconds; not many more,
because the load switches every few seconds.

The loop never runs while an item does, so work the library does during an
item (on this core or in worker processes on others, with any working set)
cannot slow the loop and shrink the reported time.  Only library work that
outlives an item, such as a worker left busy between items, would.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# About the best duration of the reference loop on an uncontended core of a
# 2-vCPU Intel Xeon host under Python 3.11.  It only sets the unit: runs are
# compared on one machine.
REF_S = 0.002
# ``mark`` samples only if this long has passed since the last sample.
EVERY_S = 0.2
# A sample is the median of this many loop runs, after one run that warms caches.
REPEAT = 3
# Samples around a stretch of time that set its scale: under a second of
# them where items are short, about half a pass on atlas-verify.
NEAR = 4
# The loop multiplies two polynomials with Fraction coefficients held in
# dicts keyed by exponent tuples: the library's kind of work, done by the
# standard library alone.  In two of three measured stretches of load its
# time tracked the library's more closely than a small-integer loop's did.
_POLY = {(i, j): Fraction(7 * i + 1, j + 3) for i in range(5) for j in range(5)}


def _reference_loop():
    out = {}
    for (a, b), x in _POLY.items():
        for (c, d), y in _POLY.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return out


def _timed_loop():
    start = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - start


class Clock:
    """Collects a run's reference samples; ``length(a, b)`` normalises an interval between the first and last."""

    def __init__(self):
        self.samples = []
        self._ends = self._rates = self._cum = None

    def sample(self):
        """Time the reference loop now.  Call only where no timed work is in progress."""
        start = time.perf_counter()
        _timed_loop()
        duration = statistics.median(_timed_loop() for _ in range(REPEAT))
        self.samples.append((start, time.perf_counter(), duration))
        self._cum = None

    def mark(self):
        """Sample if ``EVERY_S`` has passed since the last sample; for use between items."""
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def _rate(self, k):
        """Scale of the time between samples k and k + 1: ``REF_S`` over the mean of the NEAR around it."""
        lo = max(0, min(k + 1 - NEAR // 2, len(self.samples) - NEAR))
        return REF_S / statistics.fmean(d for _, _, d in self.samples[lo : lo + NEAR])

    def _at(self, t):
        """Normalised time elapsed from the end of the first sample to ``t``."""
        if self._cum is None:
            self._ends = [end for _, end, _ in self.samples]
            self._rates = [self._rate(k) for k in range(len(self.samples) - 1)]
            self._cum = [0.0]
            for k, rate in enumerate(self._rates):
                self._cum.append(self._cum[-1] + (self.samples[k + 1][0] - self._ends[k]) * rate)
        k = min(max(bisect.bisect_right(self._ends, t) - 1, 0), len(self._rates) - 1)
        return self._cum[k] + (t - self._ends[k]) * self._rates[k]

    def length(self, a, b):
        """Normalised length of the interval [a, b] of ``time.perf_counter`` readings."""
        return self._at(b) - self._at(a)


class RawClock:
    """Stands in for ``Clock`` in traced passes: no samples, raw seconds."""

    def sample(self):
        pass

    mark = sample

    @staticmethod
    def length(a, b):
        return b - a
