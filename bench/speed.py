"""The machine's speed, sampled with a fixed reference loop.

The benchmark shares a few cores of a host with other work, and the speed
those cores give a single Python thread drifts by up to a factor of two
over tens of seconds. A run that lands in a slow stretch would read as a
slower program. So the runner times a fixed pure-Python loop, which does
not depend on resgraph, next to the ops, and scales every op time by the
loop's speed near that op relative to ``REFERENCE_NS`` (:meth:`SpeedProbe.
scale`): an op time then reads as it would on a machine where the loop
takes ``REFERENCE_NS``.

While a timed pass runs, :class:`SpeedProbe` runs the loop from a
``SIGALRM`` handler every ``INTERVAL_S`` seconds, inside long ops as well as
between short ones, and keeps the time it spent there so the runner can
take it out of the op times. Set-up is timed the same way.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter_ns

ROUNDS = 1800
# close to the median time of reference_loop() on the 2-vCPU Xeon host the
# baseline in README.md was recorded on, in a quiet stretch
REFERENCE_NS = 1_000_000
INTERVAL_S = 0.05
WINDOW_NS = 250_000_000   # samples this close to a short op set its scale
MIN_SAMPLES = 5
LONG_OP_SAMPLES = 10   # an op with this many samples inside it is long


def reference_loop() -> int:
    """Fixed work in the mix resgraph runs: ``Fraction`` arithmetic, small
    integer arithmetic, dict reads and writes, a sort. What it allocates
    it frees at once, so it does not move the program's collections."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(ROUNDS):
        k = i % 97
        table[k] = table.get(k, 0) + i
        acc += i * 7919 % 13
    total = Fraction(0)
    for i in range(1, ROUNDS // 10):
        total += Fraction(1, i % 17 + 1)
    return acc + len(sorted(table.values())) + total.numerator % 7


class SpeedProbe:
    """Samples the loop from a timer signal while the ``with`` block runs.

    ``at`` and ``took`` hold each sample's mid-point and duration in
    ``perf_counter_ns`` nanoseconds; ``spent_ns`` is their running total,
    which the runner reads around an op to take the samples out of it.
    The timer is one-shot and re-armed after each sample, so samples never
    nest.
    """

    def __init__(self):
        self.at = array("q")
        self.took = array("q")
        self.spent_ns = 0
        self._previous = None

    def _sample(self) -> None:
        start = perf_counter_ns()
        reference_loop()
        end = perf_counter_ns()
        self.at.append((start + end) // 2)
        self.took.append(end - start)
        self.spent_ns += end - start

    def _on_alarm(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "SpeedProbe":
        # the loop's first runs in an interpreter are slower, as its
        # bytecode is not yet specialised
        for _ in range(3):
            reference_loop()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # a block shorter than a few intervals gets its samples right after
        while len(self.took) < MIN_SAMPLES:
            self._sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """How much faster the reference machine is than this one was over
        the interval. A long op gets ``REFERENCE_NS`` times the mean rate
        of the samples taken inside it, which weighs the slow and the fast
        stretches it ran through by their length. A short op gets
        ``REFERENCE_NS`` over the median sample within ``WINDOW_NS`` of it,
        or of the ``MIN_SAMPLES`` nearest ones if fewer fall there."""
        lo = bisect_left(self.at, start_ns)
        hi = bisect_right(self.at, end_ns)
        if hi - lo >= LONG_OP_SAMPLES:
            return statistics.fmean(REFERENCE_NS / took
                                    for took in self.took[lo:hi])
        lo = bisect_left(self.at, start_ns - WINDOW_NS)
        hi = bisect_right(self.at, end_ns + WINDOW_NS)
        if hi - lo < MIN_SAMPLES:
            middle = bisect_left(self.at, (start_ns + end_ns) // 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2,
                            len(self.at) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return REFERENCE_NS / statistics.median(self.took[lo:hi])
