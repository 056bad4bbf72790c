"""Wall time scaled to a reference host speed.

The benchmark runs on shared virtual machines whose speed swings between 1x
and 2x of its best within fractions of a second, for seconds to minutes at a
time (README.md, "Noise on a shared machine"). Process CPU time swings with
it, so neither wall nor CPU time of one run is steady, and a slow phase can
outlast a whole run.

A fixed piece of pure-Python work, timed between the pieces of program work,
slows down with the program. `Clock.mark()` times that work; while the clock
samples, a profiling timer also marks every GAP_S of process CPU time, from
a signal handler that runs between the program's bytecodes. Every stretch of
program time between two marks is scaled by REFERENCE_S over the mean of the
two marks' times: it reads as the time the stretch would take on a host that
runs the calibration work in REFERENCE_S. The calibration work is never
counted in a stretch.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

perf = time.perf_counter

# Fastest time of calibrate() on a 2-vCPU Intel Xeon KVM guest (Python 3.11).
REFERENCE_S = 0.00036
GAP_S = 0.02   # CPU time between two timer marks while sampling

_GRAPH = {n: tuple(m for m in ((2 * n + 1) % 13, (3 * n + 1) % 13, (5 * n + 1) % 13) if m != n)
          for n in range(13)}


def calibrate() -> int:
    """Count the 4-hop simple paths from node 0 of a fixed 13-node graph,
    25 times: tuples, dict lookups and a stack, like the program's own path
    searches."""
    found = 0
    for _ in range(25):
        stack = [(0, (0,))]
        while stack:
            node, path = stack.pop()
            if len(path) == 5:
                found += 1
                continue
            for nxt in _GRAPH[node]:
                if nxt not in path:
                    stack.append((nxt, path + (nxt,)))
    return found


class Clock:
    def __init__(self):
        self._begin: list[float] = []   # start of each mark
        self._end: list[float] = []     # end of each mark
        self._cal: list[float] = []     # calibration time of each mark
        self._busy = False

    def mark(self, *_signal) -> None:
        if self._busy:   # a timer mark during a mark; skipping keeps marks in order
            return
        self._busy = True
        start = perf()
        calibrate()
        end = perf()
        self._begin.append(start)
        self._end.append(end)
        self._cal.append(end - start)
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Mark every GAP_S of this process's CPU time, and once at each end."""
        previous = signal.signal(signal.SIGPROF, self.mark)
        self.mark()
        signal.setitimer(signal.ITIMER_PROF, GAP_S, GAP_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
            self.mark()

    def host_speed(self) -> float:
        """Reference speed over the host's median speed in the marks so far:
        1.0 on the reference host in its fastest phase, 0.5 at half that."""
        return REFERENCE_S / statistics.median(self._cal)

    def scaled(self, a: float, b: float) -> float:
        """Program time from a to b at reference speed; there must be marks
        before a and after b."""
        i = bisect.bisect_right(self._end, a) - 1
        j = bisect.bisect_left(self._begin, b)
        if i < 0 or j >= len(self._begin):
            raise ValueError("scaled(): no mark before the start or after the end")
        total = 0.0
        for k in range(i, j):
            stretch = min(self._begin[k + 1], b) - max(self._end[k], a)
            total += stretch * 2 * REFERENCE_S / (self._cal[k] + self._cal[k + 1])
        return total
