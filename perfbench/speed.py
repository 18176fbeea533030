"""Machine-speed calibration, interleaved with the work it corrects.

On a shared host the speed of a core drifts: a fixed pure-Python loop timed
back to back on the 2-vCPU VM this benchmark was written on had an
IQR/median of 0.25 across the medians of 60-second windows, and CPU time
drifted exactly as much as wall time.  Raw wall times taken at different
moments are then not comparable.

A Calibrator times a short fixed loop (a burst) from a SIGALRM handler every
INTERVAL_S of wall time, in the very process whose work it corrects, so the
bursts sample the core while the work runs on it.  In a test on that VM,
the speed of a numpy-and-Python loop over 1-second windows correlated at
0.94 with bursts interleaved this way, and at 0.5 with the same loop run in
a second process.  For a region of wall time, the bursts' own time is
subtracted, and the rest is divided by the slowdown: the median burst time
in the region over REFERENCE_S.  That gives the region's length in
reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 12_000
INTERVAL_S = 0.025
# median burst time on that VM, Python 3.11; it only sets the unit
REFERENCE_S = 0.0011
MIN_SAMPLES = 5


def _loop(n: int) -> int:
    acc = 0
    seen = {}
    for k in range(n):
        acc = (acc + k * k) % 1_000_003
        seen[k & 255] = acc
    return acc


class Calibrator:
    """Bursts of the fixed loop, each stamped with its end on
    time.monotonic(), taken every INTERVAL_S while started."""

    def __init__(self):
        self.bursts: list[tuple[float, float]] = []  # (end, duration)
        self._previous = None

    def burst(self) -> None:
        started = time.perf_counter()
        _loop(LOOPS)
        self.bursts.append((time.monotonic(), time.perf_counter() - started))

    def _tick(self, signum, frame) -> None:
        self.burst()

    def start(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def region(self, start: float, end: float) -> dict:
        """Burst time inside [start, end] (time.monotonic() stamps) and the
        slowdown there.  Too few bursts inside and the nearest later ones
        are used too, taking fresh bursts if need be.  Call it stopped."""
        inside = [d for t, d in self.bursts if start <= t <= end]
        later = [d for t, d in self.bursts if t > end]
        while len(inside) + len(later) < MIN_SAMPLES:
            self.burst()
            later.append(self.bursts[-1][1])
        sample = inside + later[:max(MIN_SAMPLES - len(inside), 0)]
        return {"cal_s": sum(inside),
                "slowdown": statistics.median(sample) / REFERENCE_S,
                "bursts": len(inside)}


def reference_seconds(wall_s: float, region: dict) -> float:
    """A region's wall time, bursts taken out, in reference seconds."""
    return (wall_s - region["cal_s"]) / region["slowdown"]
