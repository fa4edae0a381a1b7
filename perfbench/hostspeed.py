"""Host speed, measured during the run by a fixed reference kernel.

The benchmark shares a host whose speed drifts by tens of percent within
seconds, in CPU time as much as in wall time.  A run therefore times a
fixed reference kernel (stdlib only, no oddtrace) every EVERY_S seconds,
from an interval timer, so that samples fall inside tasks as well as
between them.  Task times are given in reference seconds: the measured
seconds, less the time spent in samples, times REFERENCE_S divided by the
kernel's mean time during the task, or near it for a short task.  At the
reference speed, a reference second is a second.

The kernel does what oddtrace spends its time on: Fraction arithmetic in
dicts, modular big-integer products and interpreter overhead, so that a
slower host slows both by about the same factor.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0030   # the kernel's time at the reference speed
EVERY_S = 0.05         # the sampling interval
MIN_SAMPLES = 8        # a task is scaled by at least this many samples


def kernel():
    """Fixed work: about 3 ms at the reference speed."""
    acc = {}
    big = 3 ** 200
    for i in range(600):
        k = i % 37
        acc[k] = acc.get(k, Fraction(0)) + Fraction(i % 11 - 5, 1 + i % 7)
        big = (big * (i | 1)) % (7 ** 230)
    return len(acc), big


def timed_kernel():
    """Seconds the kernel takes now."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class HostSpeed:
    """Kernel samples taken on SIGALRM while the context is entered.

    A Python signal handler runs in the main thread between bytecodes, so a
    sample interrupts the task that is running and adds its own time to
    the task's; `sampled` gives that time back so it can be taken off."""

    def __init__(self):
        self.starts = []
        self.ends = []

    def _sample(self, _signum=None, _frame=None):
        collecting = gc.isenabled()
        gc.disable()  # a collection of the task's garbage is not kernel time
        t0 = perf_counter()
        t1 = t0 + timed_kernel()
        if collecting:
            gc.enable()
        self.starts.append(t0)
        self.ends.append(t1)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """No samples, e.g. while a child process runs: the kernel would
        compete with it for the host's cores."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def sampled(self, start, end):
        """Seconds within [start, end] spent taking samples."""
        i = bisect.bisect_left(self.ends, start)
        j = bisect.bisect_right(self.starts, end)
        return sum(min(e, end) - max(s, start)
                   for s, e in zip(self.starts[i:j], self.ends[i:j]))

    def factor(self, start, end):
        """Reference seconds per measured second over [start, end]: from
        the mean time of the samples taken in it, widened on both sides to
        at least MIN_SAMPLES samples.  The mean, because a task's time is
        the host's mean slowness while it runs."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        n = len(self.starts)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < n):
            lo = max(lo - 1, 0)
            if hi - lo < MIN_SAMPLES:
                hi = min(hi + 1, n)
        times = [e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]
        return REFERENCE_S / statistics.fmean(times)
