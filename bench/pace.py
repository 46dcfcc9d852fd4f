"""The host's pace, sampled all through a run, so that times measured on a
machine whose speed drifts can be stated at one fixed pace.

A shared host's speed drifts: on two vCPUs of a shared Intel Xeon server,
a fixed pure-Python loop took 8-39 % longer or shorter from one run to the
next, and varied as much within a run.  A `Pace`
times a fixed reference loop every `INTERVAL_S` of wall time, from a
SIGALRM handler, so the samples cover the timed requests evenly, and the
time spent in the handler is left out of every request.  A request's time
at reference pace is its measured time scaled by `REFERENCE_S` over the
mean reference time sampled around it: what it would have taken on the
same machine running at a pace where the reference loop takes exactly
`REFERENCE_S`.  The reference loop is plain Python shaped like `hog`'s own
hot loops (small objects, method calls, tuples, dict updates and
`Fraction` comparisons) and imports nothing from `hog`, so no change to
`hog` can change it.
"""

import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from fractions import Fraction
from itertools import accumulate
from time import perf_counter

REFERENCE_S = 0.001  # the fixed pace: one reference loop per millisecond
INTERVAL_S = 0.02  # wall time between two samples
HALO_S = 0.1  # requests are scaled by the samples within this of them

FRACTIONS = [Fraction((7 * i) % 19 - 9, i % 9 + 1) for i in range(64)]


class Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def key(self):
        return (self.a, self.b)


def reference(n=170):
    """About a millisecond of hog-like work; the same work on every call."""
    seen, count = {}, 0
    for i in range(n):
        p = Pair(i % 13, FRACTIONS[i % 64])
        k = p.key()
        seen[k] = seen.get(k, 0) + 1
        if FRACTIONS[i % 64] < FRACTIONS[(i * 7) % 64]:
            count += 1
        count += len(tuple(x for x in (p.a, p.b) if x))
    return count


class Pace:
    def __init__(self):
        self.at, self.took = [], []  # end time and duration of each sample
        self.spent = 0.0  # wall seconds spent in the handler

    def _sample(self, signum, frame):
        start = perf_counter()
        reference()
        end = perf_counter()
        self.at.append(end)
        self.took.append(end - start)
        self.spent += perf_counter() - start

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self.sums = [0.0] + list(accumulate(self.took))

    @contextmanager
    def quiet(self, samples=5):
        """No sampling while a launched process runs on this CPU: the
        scheduler would share the CPU between the two and stretch both the
        sample and the launch.  Samples just before and after it instead."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(samples):
            self._sample(None, None)
        try:
            yield
        finally:
            for _ in range(samples):
                self._sample(None, None)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def now(self):
        """perf_counter() minus the time spent sampling so far: intervals
        between two readings leave the handler's time out."""
        while True:
            spent = self.spent
            t = perf_counter()
            if spent == self.spent:  # no sample was taken in between
                return t, t - spent

    def scale(self, start, end):
        """REFERENCE_S over the mean reference time sampled in and around
        the wall-time interval [start, end]; call after the run."""
        lo = bisect_left(self.at, start - HALO_S)
        hi = bisect_right(self.at, end + HALO_S)
        if hi == lo:  # no sample near: take the nearest one on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        return REFERENCE_S * (hi - lo) / (self.sums[hi] - self.sums[lo])
