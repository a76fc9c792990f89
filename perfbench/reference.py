"""A fixed pure-Python reference kernel that gauges the machine's current speed.

On a shared host the speed at which one core runs Python code changes by up
to two times, within seconds and from one minute to the next, with the load
of other tenants.  Timings taken at different times are then not
comparable.  The benchmark therefore samples this kernel while it times the
work (`Gauge`) and reports every timing scaled to the reference speed:

    scaled = measured * REFERENCE_S / (median kernel time in the same window)

A change to `multitri` moves the measured time but not the kernel's, so it
shows in the scaled figure in full; a slower or faster machine moves both.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Seconds one `kernel()` takes at the reference speed: its median in the
# fastest state of a shared 2-vCPU Intel Xeon at 2.0 GHz with Python 3.11.7.
REFERENCE_S = 0.008


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def _affine(pair: _Pair, x: int) -> int:
    return pair.a * x + pair.b


def kernel() -> int:
    """Interpreter work of the kinds multitri does.

    Tuples, sets and dicts; small objects, attribute reads and calls; bitmask
    arithmetic on ints.  Its slowdown on a busy host tracks that of the
    library's enumerations, flips and queries more closely than any one of
    these parts alone.
    """
    seen: set[int] = set()
    buckets: dict[int, int] = {}
    acc = 0
    for i in range(5_000):
        pair = (i, i * 7 % 13)
        acc = (acc * 31 + pair[1]) & 0xFFFFFFFF
        seen.add(pair[1] + (i & 63))
        buckets[i & 1023] = buckets.get(i & 1023, 0) + 1
    pairs = [_Pair(i, i ^ 5) for i in range(64)]
    for i in range(3_000):
        acc = (acc + _affine(pairs[i & 63], i)) & 0xFFFF
        acc ^= len([p.a for p in pairs[:8] if p.b & 1])
    masks = [(1 << (i % 60)) | (1 << (i * 7 % 60)) for i in range(64)]
    bits = 0
    for i in range(10_000):
        mask = masks[i & 63] | masks[(i >> 6) & 63]
        bits = bits & ~mask if mask & bits else bits | mask
        bits ^= mask.bit_count()
    return acc ^ bits ^ len(seen) ^ len(buckets)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor turning times measured alongside `samples` into reference-speed times."""
    return REFERENCE_S / statistics.median(samples)


class Gauge:
    """Samples the kernel every `interval` seconds while a timed phase runs.

    A wall-clock timer signal interrupts the work, between two bytecodes of
    the main thread, to time one run of the kernel; no thread or process is
    added.  `clock()` is wall time minus the time spent sampling, so timings
    taken with it leave the samples out.  Use as a context manager around
    the timed phase; it also samples once on entry and once on exit.
    """

    def __init__(self, interval: float):
        self.interval = interval
        self.times: list[float] = []  # clock() at each reading
        self.readings: list[float] = []  # kernel seconds
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def read(self, *_) -> None:
        if self._busy:  # a signal arrived while sampling: skip it
            return
        self._busy = True
        start = time.perf_counter()
        self.times.append(start - self.paused)
        self.readings.append(sample())
        self.paused += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Gauge":
        self.read()
        self._previous = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.read()

    def scale(self, start: float, end: float) -> float:
        """Factor for a time measured on `clock()` from `start` to `end`.

        Uses the readings within one interval of that window, or the nearest
        one when a long call into C held the signal back.
        """
        lo = bisect.bisect_left(self.times, start - self.interval)
        hi = bisect.bisect_right(self.times, end + self.interval)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return scale(self.readings[lo:hi])
