"""Host-speed probe: express measured times at a fixed reference speed.

The benchmark host shares its cores with other tenants, and their load
changes how fast the same code runs: a fixed pure-Python loop, timed in
0.1 s pieces for ten minutes on the 2-core Xeon host the baseline comes
from, took between 1.07x and 1.92x its fastest time in 11 s windows.  That
moves a 20 s pass by 20-35% from run to run, more than any bound a
regression check could use.

While a pass runs, a SIGALRM handler times a fixed loop every
PROBE_INTERVAL_S in the same thread, between the program's own bytecodes,
so it sees the speed the program gets at that moment.  A stretch of time
then counts as its length times REFERENCE_PROBE_S over the duration of the
nearest probe: the time it would have taken at the reference speed.  The
probes' own run time is taken out.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_LOOPS = 10_000
PROBE_INTERVAL_S = 0.025
# About the probe's 5th-percentile time in a pass on the baseline host
# (0.38-0.42 ms in five orbit-oracle passes).
REFERENCE_PROBE_S = 0.0004


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _probe(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        start = time.monotonic()
        # allocates ints like the program's Python code does, so it slows
        # down as that code does; tracemalloc would slow it far more, so
        # timed passes run without it
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        self.durations.append(time.monotonic() - start)
        self.starts.append(start)
        self._busy = False

    def start(self) -> None:
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def reference_seconds(self, start: float, end: float) -> float:
        """The time [start, end] would have taken at the reference speed,
        without the probes that ran inside it."""
        starts, durations = self.starts, self.durations
        lo = max(bisect.bisect_left(starts, start) - 1, 0)
        hi = min(bisect.bisect_right(starts, end) + 1, len(starts))
        total = 0.0
        for k in range(lo, hi):
            # probe k stands for the time closer to it than to its neighbours
            left = start if k == lo else max(start, (starts[k - 1] + starts[k]) / 2)
            right = end if k == hi - 1 else min(end, (starts[k] + starts[k + 1]) / 2)
            if right > left:
                total += (right - left) * REFERENCE_PROBE_S / durations[k]
            if start <= starts[k] and starts[k] + durations[k] <= end:
                total -= REFERENCE_PROBE_S
        return max(total, 0.0)
