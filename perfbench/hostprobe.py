"""Host speed, sampled while a run measures, and the times scaled by it.

The benchmark runs on shared virtual machines whose cores switch, many
times a second, between a fast and a slow state as other tenants load the
physical cores.  On the 4-core VM it was tuned on, a fixed pure-Python loop
took ``REF`` s of CPU in the fast state and about 1.6 times that in the slow
one, the share of time spent slow drifted from minute to minute, and four
identical ``dynamic-updates`` passes in one process took 6.9 to 8.9 s.  No
run the time budget allows is long enough to average that out, so every
time the benchmark reports is scaled to the fast state.

While :meth:`Probe.running` is active, a ``SIGALRM`` handler runs the loop
every ``INTERVAL`` s and records its CPU time.  CPU time of the main thread
grows with the host's slowdown, which the guest cannot see, but not while
the thread waits for a core behind the benchmark's own threads or processes
(the Spark JVM and its workers), so the probe tracks the host and not the
load the program puts on it.  :meth:`Probe.seconds` turns the wall interval
of an operation into its time at probe speed ``REF``: it drops the samples
that ran inside the interval and multiplies the rest by ``REF`` over the
mean sample of the interval (widened to the last ``MIN_SAMPLES`` samples,
for short operations).
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

LOOP = 2000  # iterations of the probe loop
REF = 1.3e-4  # s: CPU time of the loop in the fast state of the reference VM
INTERVAL = 0.02  # s between samples
MIN_SAMPLES = 5


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class Probe:
    """Samples of the probe loop: wall start, CPU seconds, wall seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.cpu: list[float] = []
        self.wall: list[float] = []

    def _sample(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        _loop()
        c1, w1 = time.thread_time(), time.perf_counter()
        self.starts.append(w0)
        self.cpu.append(c1 - c0)
        self.wall.append(w1 - w0)

    @contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def seconds(self, t0: float, t1: float) -> float:
        """Time of the wall interval ``[t0, t1]`` at probe speed ``REF``."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        window = self.cpu[max(0, min(i, j - MIN_SAMPLES)):j]
        if not window:
            return t1 - t0
        return (t1 - t0 - sum(self.wall[i:j])) * REF / statistics.fmean(window)

    def slowdown(self) -> float:
        """Median sample over ``REF``: how much slower than the fast state
        the host ran during the run."""
        return statistics.median(self.cpu) / REF if self.cpu else 1.0
