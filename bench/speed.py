"""Machine-speed probe: reference-normalized seconds.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes as other tenants load it; CPU time drifts the same way as
wall time, so neither is steady. The probe times a fixed standard-library
Fraction loop in bursts between timed units. A unit's normalized time is its
wall time divided by the probe's slowdown around it: the median of the
bursts just before and after the unit and of every sample within the unit's
duration of it, over REFERENCE_S. The loop
does not touch the library, so a change to the library cannot move it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from statistics import median
from time import perf_counter

# the probe loop's duration with the machine quiet (Intel Xeon, 2 vCPUs,
# CPython 3.11.7), so normalized seconds read as seconds on that machine
REFERENCE_S = 0.0023
BURST = 3  # probe loops per burst
# seconds since the last burst before an unforced burst is taken: short
# enough that the units of a tree workload each get a burst on both sides,
# long enough that bursts cost many tiny fuzz units under a fifth more time
INTERVAL = 0.05


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


class SpeedProbe:
    def __init__(self):
        self.starts = []
        self.ends = []
        self.durations = []

    def sample(self, force=True) -> None:
        """Time a burst of probe loops; unless forced, only when INTERVAL
        seconds have passed since the last burst."""
        if (not force and self.ends
                and perf_counter() - self.ends[-1] < INTERVAL):
            return
        for _ in range(BURST):
            began = perf_counter()
            reference_work()
            ended = perf_counter()
            self.starts.append(began)
            self.ends.append(ended)
            self.durations.append(ended - began)

    def slowdown(self, began, ended) -> float:
        """Median probe duration around [began, ended], over REFERENCE_S:
        the burst before and the burst after it, and every other sample
        within the unit's own duration of it. One probe burst can land on a
        momentary spike or lull; a long unit averages over many of those, so
        it is set against as many samples around it."""
        span = ended - began
        before = bisect_right(self.ends, began)
        after = bisect_left(self.starts, ended)
        first = min(before - BURST, bisect_left(self.ends, began - span))
        last = max(after + BURST, bisect_right(self.starts, ended + span))
        around = (self.durations[max(first, 0):before]
                  + self.durations[after:last])
        return median(around) / REFERENCE_S
