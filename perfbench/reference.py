"""A fixed pure-Python loop that measures how fast the core runs Python now.

On a shared machine other tenants slow this process by up to about 1.9x for
stretches of seconds, and the program and the loop slow alike: a unit's wall
time divided by the loop's time measured next to it varied by under 10%
where the wall time alone varied by 60%. So every time the benchmark gates on
is taken with a :class:`Meter`, which reads the loop before, during (every
``TICK_S``, from a timer signal) and after the work, and scales the work's
time by ``REF_S`` over those readings. The result reads as seconds on an
uncontended core of the machine where ``REF_S`` was measured, and as
consistently scaled seconds on any other.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

REF_ITERATIONS = 1000
REF_REPEAT = 3  # best of a few back-to-back loops drops a timer interrupt
# best reference() on an uncontended core of the baseline machine (see README)
REF_S = 0.000226
TICK_S = 0.05


def _loop() -> float:
    began = perf_counter()
    table = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        item = (i, i + 1, i * 3)
        table[i & 63] = item
        acc += sum(item) // 7
    return perf_counter() - began


def reference() -> float:
    """Seconds one fixed mix of the interpreter's commonest work takes now."""
    return min(_loop() for _ in range(REF_REPEAT))


class Meter:
    """Times stretches of work in reference-scaled seconds.

    Use ``with meter:`` around each stretch; afterwards ``seconds`` is its
    wall time without the readings taken during it, and ``scaled`` that time
    at the mean speed the readings show. One meter can time a run of
    stretches back to back: the reading after one is the reading before the
    next.
    """

    def __init__(self):
        self._last: float | None = None
        self.seconds = self.scaled = 0.0

    def _tick(self, signum, frame) -> None:
        began = perf_counter()
        self._readings.append(reference())
        self._ticks_s += perf_counter() - began

    def __enter__(self) -> Meter:
        if self._last is None:
            self._last = reference()
        self._readings = [self._last]
        self._ticks_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._began = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        took = perf_counter() - self._began
        signal.signal(signal.SIGALRM, self._previous)
        self._last = reference()
        self._readings.append(self._last)
        self.seconds = took - self._ticks_s
        self.scaled = self.seconds * fmean(REF_S / r for r in self._readings)
        return False
