"""Times at reference speed.

The machine the benchmark was defined on shares its CPUs with other work.
A fixed pure-Python loop ran there at speeds up to 1.5x apart, changing
every few seconds to minutes, so raw wall times of the same code on
different seeds spread by 15-40 %.  The benchmark therefore cuts the timed
work into segments of about SEGMENT_S, times a reference loop between
segments, and scales each segment's wall time to the speed at which the
loop takes REFERENCE_S.  Like the analyses, the loop allocates small objects and fills
a dict, which tracked the jobs' slowdowns more closely than plain integer
arithmetic did.  A reading is the fastest of three short loops, so that one
interrupt does not skew it.  A change to overrun-lint cannot move the loop,
so a slower program still reads slower; a busier machine mostly does not.
"""

from __future__ import annotations

from time import perf_counter

# Reference loop time on an unloaded 2.1 GHz Xeon with Python 3.11.
REFERENCE_S = 0.001
_ITERATIONS = 3000
# Longest stretch timed between two readings where the work allows a cut;
# with readings only at the ends of 3 s jobs, speed changes inside them
# were not corrected.
SEGMENT_S = 0.25


def reference_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        table = {}
        for i in range(_ITERATIONS):
            item = (i, str(i), [i, i + 1])
            table[item[1]] = item
        best = min(best, perf_counter() - start)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """`seconds` of work, timed between two reference readings."""
    return seconds * 2 * REFERENCE_S / (before + after)


class ReferenceClock:
    """Times jobs at reference speed.  start() and stop() bracket a job;
    lap() marks a point inside it where a reading may cut a segment.  The
    closing reading of one job opens the next."""

    def __init__(self):
        self._reading = reference_seconds()
        self._mark = perf_counter()
        self.seconds = self.raw_seconds = 0.0

    def start(self) -> None:
        self.seconds = self.raw_seconds = 0.0
        self._mark = perf_counter()

    def lap(self) -> None:
        if perf_counter() - self._mark >= SEGMENT_S:
            self.stop()

    def stop(self) -> None:
        elapsed = perf_counter() - self._mark
        reading = reference_seconds()
        self.raw_seconds += elapsed
        self.seconds += at_reference_speed(elapsed, self._reading, reading)
        self._reading = reading
        self._mark = perf_counter()
