"""Timing that stays comparable on a shared host whose speed drifts.

On the 2-core VM this benchmark was written on (Intel Xeon at 2.1 GHz,
Python 3.11), the speed of pure-Python work swung by up to 1.8 times from
one second to the next and over stretches of 5 to 30 seconds, and process
CPU time swung with wall time: the slowdown is host contention, which no
single run can average away.  So while a run measures, an interval timer
interrupts the process every ``EVERY_S`` seconds and times a fixed
reference kernel, part of the benchmark and not of the program, inside
whatever call is running.  A call's duration, less the kernel runs inside
it, is scaled by ``REF_S`` times the mean of 1/(kernel time) over the
samples within ``WINDOW_S`` of the call.  That mean weights each stretch of
the call by the host speed measured in it, so the scaled time is the time
the call would have taken at the reference speed: a change to the program
moves it, a change in host load hardly does.  Interleaving the kernel
between calls instead missed the swings inside long calls and added noise.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

# The reference speed: reference() took 1.0 to 2.2 ms on one core of the
# VM named above, depending on host load; 1.5 ms is taken as nominal.
REF_S = 0.0015
EVERY_S = 0.05
WINDOW_S = 0.2

_TABLE = ((1, 2, -1), (2, 3), (-3, 1, 3), (4, -2, 1), (2, 4))


def _substitute(table, w):
    out: list[int] = []
    for x in w:
        img = table[x - 1] if x > 0 else tuple(-y for y in reversed(table[-x - 1]))
        for y in img:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    return tuple(out)


def reference() -> int:
    """Fixed free-group substitution work, the kind the program does."""
    w: tuple[int, ...] = (1, 2, 3, 4, 5)
    seen = {}
    for i in range(12):
        w = _substitute(_TABLE, w)[:300]
        seen[w[:6]] = i
    return len(w)


class Clock:
    """Times calls into the program against reference samples taken in them.

    Use as a context manager: the sampling timer runs inside the ``with``
    block.  ``on_sample``, when set, receives the duration of each kernel
    run, so a tracer can keep it out of the span it interrupted.
    """

    def __init__(self) -> None:
        self._ref_t: list[float] = []   # midpoints of reference samples
        self._ref_d: list[float] = []   # their durations
        self._calls: list[tuple[float, float]] = []
        self._previous = None
        self._busy = False
        self.on_sample = None

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        if self._busy:   # a tick that lands inside the kernel is dropped
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()   # a collection owed by the program is not the kernel's
        try:
            t0 = perf_counter()
            reference()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self._ref_t.append((t0 + t1) / 2)
        self._ref_d.append(t1 - t0)
        if self.on_sample is not None:
            self.on_sample(t1 - t0)

    def call(self, fn, *args):
        """(result, error text or None, call index) of one program call.

        An exception is returned as text so that it is counted as a failed
        operation instead of ending the run.
        """
        t0 = perf_counter()
        try:
            out, err = fn(*args), None
        except Exception as exc:
            out, err = None, repr(exc)
        self._calls.append((t0, perf_counter()))
        return out, err, len(self._calls) - 1

    def factor(self, t0: float, t1: float) -> float:
        """REF_S times the mean reference speed around [t0, t1]."""
        lo = bisect_left(self._ref_t, t0 - WINDOW_S)
        hi = bisect_right(self._ref_t, t1 + WINDOW_S)
        if hi - lo < 3:
            mid = (t0 + t1) / 2
            k = bisect_left(self._ref_t, mid)
            near = sorted(range(max(0, k - 3), min(len(self._ref_t), k + 3)),
                          key=lambda j: abs(self._ref_t[j] - mid))[:3]
            durations = [self._ref_d[j] for j in near]
        else:
            durations = self._ref_d[lo:hi]
        return REF_S * statistics.fmean(1 / d for d in durations)

    def raw(self, index: int) -> float:
        """Duration of call ``index`` less the reference runs inside it."""
        t0, t1 = self._calls[index]
        lo = bisect_left(self._ref_t, t0)
        hi = bisect_right(self._ref_t, t1)
        return t1 - t0 - sum(self._ref_d[lo:hi])

    def scaled(self, index: int) -> float:
        """Duration of call ``index`` at the reference speed, in seconds."""
        return self.raw(index) * self.factor(*self._calls[index])
