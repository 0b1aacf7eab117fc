"""Times in reference seconds: wall time corrected for the host's drifting speed.

The benchmark runs on a few cores of a shared host, whose speed for the
same code drifts by 15-25 % over seconds and by as much over hours, as
other tenants come and go.  Medians within a run cannot remove a drift
that lasts minutes, so raw wall times of the same code spread wider from
run to run than any useful bound.

`Clock` measures the drift while the program runs.  A fixed kernel, made of
the work orelat's code is made of (integer arithmetic, dict, set and
frozenset building, small numpy calls), runs from a SIGVTALRM handler every
TICK_S of the process's CPU time, in the same process and thread as the
program; no other thread or process is started.  `Clock.seconds(a, b)` turns
a `time.perf_counter` interval into reference seconds: the time the program
ran in it, without the kernel's own runs, each stretch between two kernel
samples scaled by REF_S over the median duration of the NEAR samples on
either side.  A reference second is a second on a host where the kernel
takes REF_S.  On a 2-vCPU Intel Xeon cloud host the kernel took 1.0-1.4 ms,
so there a reference second was 1.0-1.4 wall seconds of the program's work.
The kernel's runs cost about 3 % of the process's CPU time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_S = 0.04  # process CPU time between two kernel samples
REF_S = 1.0e-3  # the kernel's duration that defines a reference second
NEAR = 10  # samples on each side whose median gives the local kernel duration
WARMUP = 40  # samples taken before the timer starts, so no interval lacks neighbours

_KEYS = [(i * 7919) % 4001 for i in range(2500)]


def _kernel(np, leq) -> int:
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    table = {}
    for key in _KEYS:
        table[key] = key & 255
    seen = set()
    for j in range(0, len(_KEYS), 8):
        seen |= frozenset(_KEYS[j:j + 12])
    for x in range(20):
        row = x % len(leq)
        acc += int(np.flatnonzero(leq[row]).sum()) + int(np.packbits(leq, axis=1)[row, 0])
    return acc + len(table) + len(seen)


class Clock:
    """Kernel samples taken all through a run, and the conversion they allow."""

    def __init__(self):
        self.starts: list = []
        self.ends: list = []
        self.durations: list = []
        self.local: list = []
        self._args = None

    def start(self) -> None:
        """Take WARMUP samples, then one every TICK_S of CPU time until `stop`.

        Imports numpy, so a set-up that should import it cold must come first.
        """
        import numpy as np

        self._args = (np, np.triu(np.ones((12, 12), dtype=bool)))
        for _ in range(WARMUP):
            self._sample()
        signal.signal(signal.SIGVTALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)
        d, n = self.durations, len(self.durations)
        # local[g]: the kernel's duration around the stretch before sample g.
        self.local = [statistics.median(d[max(0, g - NEAR):min(n, g + NEAR)]) for g in range(n + 1)]

    def _on_tick(self, signum, frame) -> None:
        self._sample()

    def _sample(self) -> None:
        began = time.perf_counter()
        _kernel(*self._args)
        ended = time.perf_counter()
        self.starts.append(began)
        self.ends.append(ended)
        self.durations.append(ended - began)

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds the program ran between perf_counter readings a <= b (after `stop`)."""
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.starts, b)
        total, t = 0.0, a
        for g in range(first, last):
            total += max(0.0, self.starts[g] - t) / self.local[g]
            t = max(t, self.ends[g])
        total += max(0.0, b - t) / self.local[last]
        return total * REF_S

    def speed(self) -> float:
        """The host's speed over the run: REF_S over the median kernel duration."""
        return REF_S / statistics.median(self.durations)
