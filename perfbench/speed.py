"""Times corrected for the machine's speed, by a reference sampled meanwhile.

The machine the benchmark was defined on (a 2-vCPU virtual machine on a
shared host) changes speed by 30-60 % from one spell to the next, and a
spell lasts from seconds to minutes: as long as a run or longer, so no
statistic of a run's raw wall times is steady from run to run.  While the
library works, a timer interrupts it every ``PERIOD_S`` seconds to time a
fixed reference workload, which slows down and speeds up with the library.
A time is scaled by the reference's nominal time over the median of the
reference samples taken while it ran, raised to ``EXPONENT``, so it reads in
seconds at the machine's usual speed.  The samples' own time is taken out
of the wall time of the call they interrupted.

The reference mixes two kinds of pure-Python work that the library does:
integer arithmetic with tuple indexing, and building and hashing tuples of
tuples.  It allocates little, and the garbage collector is off while it
runs, so that the library's heap hardly changes its speed (JSON work was
tried and left out: after the library's passes it ran 20-70 % slower than in
a fresh process).  The reference is the benchmark's own code, so a change to
the library cannot change it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The reference's median time in runs of the benchmark on the machine it was
# defined on (Python 3.11.7, 2 vCPUs of an Intel Xeon host).  It only sets
# the scale of corrected times, so that they read like wall times there.
REFERENCE_NOMINAL_S = 0.0065
# Seconds between reference samples.
PERIOD_S = 0.1
# The library's speed moves less than the reference's: over 18-second
# windows of a 9-minute trace on that machine, the times of four library
# operations went as the reference's to the power 0.63-0.85 (least-squares
# fits), so a correction by the full ratio overshoots in fast spells.
EXPONENT = 0.75

_TABLE = tuple(tuple((i * j) % 7 - 3 for j in range(16)) for i in range(16))
_SQUARE = tuple(tuple((i * j) % 5 - 2 for j in range(12)) for i in range(12))


def _arithmetic():
    acc = 0
    for r in range(2800):
        row = _TABLE[r & 15]
        for j in range(0, 16, 3):
            acc += row[j] * (r & 7) - (acc & 3)
    return acc


def _tuples():
    rows, seen = _SQUARE, {}
    for k in range(90):
        v = k % 12
        rows = tuple(
            tuple(-x if v in (i, j) else x for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )
        seen[rows] = k
    return len(seen)


def reference() -> float:
    """Run the reference workload once; return its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _arithmetic()
        _tuples()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Times library calls while a timer samples the reference.

    Use as a context manager: the timer runs inside the ``with`` block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.raw_s = 0.0
        self._taken_s = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference())
        self._taken_s += time.perf_counter() - t0

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its wall seconds and its result.

        The wall seconds leave out the reference samples taken meanwhile.
        """
        taken = self._taken_s
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0 - (self._taken_s - taken)
        self.raw_s += wall
        return wall, result

    def mark(self) -> int:
        """The number of samples taken so far, to delimit a span of them."""
        return len(self.samples)

    def scale(self, *spans: tuple[int, int]) -> float:
        """The factor that corrects times measured while the samples of the
        given ``(start, stop)`` spans were taken; all samples if none were."""
        taken = [x for start, stop in spans for x in self.samples[start:stop]]
        ratio = REFERENCE_NOMINAL_S / statistics.median(taken or self.samples)
        return ratio**EXPONENT


class WallClock:
    """The meter's interface with plain wall times, for traced runs."""

    def time(self, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        return time.perf_counter() - t0, result
