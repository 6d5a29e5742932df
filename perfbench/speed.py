"""Machine-speed sampling, so that reported times do not follow the machine.

On the 2-CPU machine the benchmark was defined on, other tenants switch it
between a fast and a slow mode, up to 2x apart, and its speed also wanders
within a second.  Raw times of the same code spread by about a third from
run to run, and even a calibration timed just before and just after a call
misses what happened during it (the scaled time of one 1 s call still
varied by 14%).

So while a pass runs, :class:`SpeedSampler` times a fixed pure-Python
bitmask scan, the kind of loop proxikit's table checks run: ``BOUNDARY_SCANS``
times between every two timed intervals, and once every ``SAMPLE_PERIOD_S``
seconds of wall time during them, from a ``SIGALRM`` handler.  An interval's
time is its raw time, minus the time spent in the sampler, scaled by
``CALIBRATION_REF_S`` / (mean time of the scans taken during it and of the
``BOUNDARY_SCANS`` just before and just after it).  A short call is thus
scaled by the speed right around it, a long one by the speed throughout.
Reported times are seconds at the speed where the scan takes
``CALIBRATION_REF_S``, about its fast-mode time there.  The scan is the
benchmark's own code, so a change to proxikit moves the scaled times in
full; only the machine's speed is divided out.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

SAMPLE_PERIOD_S = 0.02
BOUNDARY_SCANS = 8
CALIBRATION_REF_S = 0.0005
_ROWS = tuple((a * 0x9E3779B97F4A7C15) & ((1 << 64) - 1) for a in range(64))


def calibration_scan_s() -> float:
    """Time of the fixed calibration scan: 64 x 64 bit tests."""
    rows = _ROWS
    acc = 0
    start = time.perf_counter()
    for a in range(64):
        row = rows[a]
        for b in range(64):
            if (row >> b) & 1:
                acc ^= rows[b] & ~row
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the scan time while active (a context manager) and scales
    the intervals timed inside it.  Entering takes the boundary scans before
    the first interval; call :meth:`mark` after each interval."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # sample end times, in increasing order
        self.spent: list[float] = []
        self.scans: list[float] = []
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a timer signal that arrived during a sample
            return
        self._busy = True
        try:
            start = time.perf_counter()
            scan = calibration_scan_s()
            end = time.perf_counter()
            self.ends.append(end)
            self.scans.append(scan)
            self.spent.append(end - start)
        finally:
            self._busy = False

    def mark(self) -> None:
        """Take the boundary scans, between two timed intervals."""
        for _ in range(BOUNDARY_SCANS):
            self._sample()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.mark()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, start: float, end: float) -> tuple[float, float]:
        """Scaled and raw time of [start, end], the sampler's own time left
        out.  The interval must lie between two marks."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        raw = end - start - sum(self.spent[lo:hi])
        scans = self.scans[max(lo - BOUNDARY_SCANS, 0):hi + BOUNDARY_SCANS]
        return raw * CALIBRATION_REF_S / statistics.fmean(scans), raw
