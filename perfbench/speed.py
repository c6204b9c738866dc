"""Host speed, measured with a fixed piece of pure-Python work.

A shared host runs the benchmark at a speed that drifts by tens of per
cent over minutes, and process CPU time drifts with it.  The benchmark
therefore times a fixed reference computation between items and scales
each item's time by NOMINAL_S over the reference time measured around
it: a time then reads as seconds on a host where one reference call
takes NOMINAL_S.  The reference shares no code with the package, so a
change to the package moves the scaled times and a change of host speed
does not.  It does what the package's kernels do most: sparse rows as
dicts, multiply-adds of integers reduced mod a 31-bit prime, and lists
of polynomial coefficients.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# About the wall time of one reference() call on a quiet 2-vCPU x86-64
# host under CPython 3.11; a fixed constant, so that scaled times keep
# the unit and size of seconds.
NOMINAL_S = 0.0014

P = 2147483647
_N = 26
_rng = random.Random(20070101)
_ROWS = [{j: _rng.randrange(1, P) for j in range(_N) if _rng.random() < 0.6} for _ in range(_N)]
_POLY = [_rng.randrange(P) for _ in range(40)]


def reference() -> int:
    """A fixed amount of work: one sparse matrix square and one
    polynomial square, mod P."""
    rows = _ROWS
    out = []
    for row in rows:
        acc: dict[int, int] = {}
        for j, v in row.items():
            for k, w in rows[j].items():
                acc[k] = acc.get(k, 0) + v * w
        out.append({k: r for k, w in acc.items() if (r := w % P)})
    f = _POLY
    prod = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(f):
            prod[i + j] = (prod[i + j] + a * b) % P
    return len(out) + len(prod)


def burst(calls: int = 5) -> tuple[float, float]:
    """Median wall and CPU seconds of `calls` reference calls."""
    wall, cpu = [], []
    for _ in range(calls):
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        wall.append(time.perf_counter() - w0)
        cpu.append(time.process_time() - c0)
    return statistics.median(wall), statistics.median(cpu)


class Sampler:
    """Reference calls on a wall-clock timer while the items run.

    Every INTERVAL seconds SIGALRM runs one reference call in the main
    thread, between two bytecodes of whatever item is running, and keeps
    (start, wall, cpu).  An item's scaled time is its time without the
    reference calls that ran inside it (`inside`), times NOMINAL_S times
    the mean reference speed over the item and WINDOW seconds on either
    side (`factors`).  Samples come at even wall-clock
    steps, so the mean of their speeds (1 / time) is the mean host speed
    the item ran at.  Bursts at the start and end cover the first and
    last items.
    """

    INTERVAL = 0.05
    WINDOW = 0.25

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[tuple[float, float]] = []
        self._old_handler = None

    def _sample(self, *_):
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        self.starts.append(w0)
        self.samples.append((time.perf_counter() - w0, time.process_time() - c0))

    def _burst(self, calls: int = 5) -> None:
        for _ in range(calls):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._burst()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._burst()

    def inside(self, start: float, end: float) -> tuple[float, float]:
        """Wall and CPU seconds of the reference calls that started
        between `start` and `end`."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return (sum(w for w, _ in self.samples[lo:hi]),
                sum(c for _, c in self.samples[lo:hi]))

    def factors(self, start: float, end: float) -> tuple[float, float]:
        """NOMINAL_S times the mean wall and CPU reference speed from
        WINDOW before `start` to WINDOW after `end`."""
        lo = bisect.bisect_left(self.starts, start - self.WINDOW)
        hi = bisect.bisect_right(self.starts, end + self.WINDOW)
        near = self.samples[lo:hi]
        return (NOMINAL_S * statistics.fmean(1 / w for w, _ in near),
                NOMINAL_S * statistics.fmean(1 / max(c, 1e-6) for _, c in near))
