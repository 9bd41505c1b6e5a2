"""Time corrected for the speed of the host.

On a shared virtual machine the same Python code runs at speeds that differ
by up to 1.7x from one second to the next, as other tenants come and go.
Wall time then says as much about the neighbours as about the program.  The
clock here samples the host's speed while the program runs: every
INTERVAL_S a SIGALRM handler times a fixed probe (tuple hashing and dict
lookups, the operations the library is made of).  Each slice of time
between two samples is rescaled by REF_PROBE_S / probe time, so a slice run
at half speed counts half.  The probe's own time is taken out.

``corrected(a, b)`` is the time between two ``perf_counter`` readings as it
would have been on a host where the probe takes REF_PROBE_S;
``raw(a, b)`` is plain wall time with the probes taken out.  The probe
allocates no object the garbage collector tracks, so it does not move the
collector's schedule.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_right
from time import perf_counter

INTERVAL_S = 0.02
# The probe's time at full speed on the host the bounds were set on (2-core
# x86 virtual machine, Python 3.11.7).  It only sets the scale: comparisons
# are between runs on one machine, so it must not change between them.
REF_PROBE_S = 63e-6

_KEYS = [tuple((i * 7 + j) % 13 for j in range(6)) for i in range(400)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}
_PROBE_KEYS = _KEYS * 2


def probe() -> float:
    """Seconds one fixed burst of tuple hashing and dict lookups takes."""
    table = _TABLE
    start = perf_counter()
    total = 0
    for k in _PROBE_KEYS:
        total += table[k]
    return perf_counter() - start


class SpeedClock:
    """Samples the host's speed between start() and stop()."""

    def __init__(self, interval: float = INTERVAL_S, ref: float = REF_PROBE_S):
        self.interval = interval
        self.ref = ref
        self.start_t = 0.0
        self.marks = array("d")  # perf_counter when each sample ended
        self.busy = array("d")  # seconds each sample took
        self.speeds = array("d")  # ref / probe time of each sample
        self._corr = array("d")  # corrected time from start to each mark
        self._raw = array("d")  # raw time from start to each mark
        self._sampling = False

    def _sample(self, *_) -> None:
        if self._sampling:
            return
        self._sampling = True
        begin = perf_counter()
        best = min(probe(), probe())
        end = perf_counter()
        self._sampling = False
        prev = self.marks[-1] if self.marks else self.start_t
        work = max(0.0, begin - prev)
        speed = self.ref / best
        self._corr.append((self._corr[-1] if self._corr else 0.0) + work * speed)
        self._raw.append((self._raw[-1] if self._raw else 0.0) + work)
        self.marks.append(end)
        self.busy.append(end - begin)
        self.speeds.append(speed)

    def start(self) -> None:
        self.start_t = perf_counter()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        # A last sample closes the final slice.
        self._sample()

    def _at(self, t: float, cumulative, scaled: bool) -> float:
        """Time from start() to t, probes taken out."""
        i = bisect_right(self.marks, t)
        if i == len(self.marks):
            return cumulative[-1]
        prev = self.marks[i - 1] if i else self.start_t
        work_end = self.marks[i] - self.busy[i]
        part = max(0.0, min(t, work_end) - prev)
        base = cumulative[i - 1] if i else 0.0
        return base + part * (self.speeds[i] if scaled else 1.0)

    def corrected(self, a: float, b: float) -> float:
        return self._at(b, self._corr, True) - self._at(a, self._corr, True)

    def raw(self, a: float, b: float) -> float:
        return self._at(b, self._raw, False) - self._at(a, self._raw, False)
