"""A clock calibrated against a fixed reference kernel.

Why: on the shared 2-vCPU virtual machine (Xeon, 2.1 GHz) where this
benchmark was built, other tenants slow the CPU by up to 2x for seconds at
a time.  That slowdown shows in wall time and CPU time alike, so the median
wall time of a run swings by 30-40% from one run to the next.  Such noise
would hide any regression.

How: while a RefClock is installed, a SIGALRM fires every PERIOD seconds of
wall time.  The handler times one reference kernel, which is pure-Python
work of the same kinds loceret does: table-lookup field arithmetic in list
comprehensions, a small prime-field elimination and subset enumeration.
Between two ticks the calibrated clock advances by
wall time * REF_SECONDS / (kernel time), the kernel time being the median
of the last SMOOTHING ticks.  So it runs at the speed the machine has at
that moment, and when the CPU slows down the clock slows down with it.  The
kernel's own time is left out of the clock.

REF_SECONDS is the kernel's time on an undisturbed core of that machine
(the 5th percentile of 1200 ticks during workload runs), so one calibrated
second is about one undisturbed wall second there.  The kernel is benchmark
code that no change to loceret touches, so a faster loceret still shows in
full.  Code that suffers less from the contention than the kernel does
reads a few percent faster in slow periods.
"""

from __future__ import annotations

import collections
import itertools
import signal
import statistics
import time

REF_SECONDS = 250e-6
PERIOD = 0.005
SMOOTHING = 3              # speed = median of the last SMOOTHING kernel times


class _Field:
    """GF(2^8) with log tables and element checks, in loceret's style."""

    def __init__(self):
        self.q = 256
        self.exp = [0] * 255
        self.log = [0] * 256
        x = 1
        for i in range(255):
            self.exp[i] = x
            self.log[x] = i
            x <<= 1
            if x & 256:
                x ^= 0x11D

    def _check(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(a)
        return a

    def add(self, a, b):
        self._check(a)
        self._check(b)
        return a ^ b

    def mul(self, a, b):
        self._check(a)
        self._check(b)
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % 255]


_FIELD = _Field()
_ROWS = [[(i * 37 + j * 11) % 256 for j in range(32)] for i in range(8)]
_MAT = [[(i * 7 + j * 3 + i * j) % 17 for j in range(10)] for i in range(6)]


def _rank(mat, p=17):
    mat = [list(r) for r in mat]
    rank = 0
    for c in range(len(mat[0])):
        piv = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        inv = pow(prow[c], p - 2, p)
        for r in range(rank + 1, len(mat)):
            f = mat[r][c]
            if f:
                g = (f * inv) % p
                row = mat[r]
                for j in range(c, len(row)):
                    row[j] = (row[j] - g * prow[j]) % p
        rank += 1
    return rank


def _subsets():
    n = 0
    for T in itertools.combinations(range(9), 2):
        dropped = set(T)
        n += len(tuple(c for c in range(9) if c not in dropped))
    return n


def kernel():
    """The reference work; about REF_SECONDS on an undisturbed core."""
    out = [0] * 32
    for row in _ROWS:
        out = [_FIELD.add(o, _FIELD.mul(3, v)) for o, v in zip(out, row)]
    return out, _rank(_MAT), _rank(_MAT), _subsets()


class RefClock:
    """Calibrated seconds; use as a context manager in the main thread."""

    def __init__(self):
        self.ticks = 0
        self._recent = collections.deque(maxlen=SMOOTHING)
        t1, speed, _ = self._measure()
        self._state = (0.0, t1, speed)      # calibrated s at mark, mark, speed
        self._previous = None

    def _measure(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._recent.append(t1 - t0)
        return t1, REF_SECONDS / statistics.median(self._recent), t0

    def _tick(self, signum, frame):
        cal, mark, speed = self._state
        t1, new_speed, t0 = self._measure()
        self._state = (cal + (t0 - mark) * (speed + new_speed) / 2, t1, new_speed)
        self.ticks += 1

    def now(self) -> float:
        """Calibrated seconds since the clock was made."""
        while True:
            ticks = self.ticks
            cal, mark, speed = self._state
            t = time.perf_counter()
            if ticks == self.ticks:     # no tick in between
                return cal + (t - mark) * speed

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
