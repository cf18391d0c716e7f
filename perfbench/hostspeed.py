"""Times scaled to a fixed host speed.

The 2-vCPU virtual machine the benchmark was written on switches between
speeds that differ by up to a half, for seconds to minutes at a time, in
CPU time as much as in wall time, so raw times of identical runs spread by
10-20 %. A short pure-Python reference loop, which never calls the package,
speeds up and slows down with the host. HostClock cuts each sweep into
stretches at cell boundaries, at least INTERVAL_S long, times the loop
between stretches, and scales each stretch by NOMINAL_S over the mean of
the loop's times at its two ends: the result is the time at the loop's
nominal speed. The loop runs outside the stretches, so it adds nothing to
the package's time.
"""
from __future__ import annotations

import time

LOOPS = 300_000
# Median time of reference_s() on the machine the benchmark was written on;
# scaled times read as seconds at that speed.
NOMINAL_S = 0.037
# Shortest stretch; the loop then takes at most about 7 % of a run.
INTERVAL_S = 0.5
# The loop's first few runs in a process read up to twice its steady time,
# which would shrink the first stretch of a run; these runs are discarded.
WARMUP_RUNS = 5


def reference_s(loops: int = LOOPS) -> float:
    """Seconds for a fixed pure-Python arithmetic loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(loops):
        acc += (i % 7) * 0.5
    return time.perf_counter() - t0


def scale(raw_s: float, ref_before: float, ref_after: float) -> float:
    """raw_s at the nominal host speed, from the loop's times around it."""
    return raw_s * NOMINAL_S / ((ref_before + ref_after) / 2.0)


class HostClock:
    """Raw and speed-scaled time of sweeps; tick() marks a cell boundary."""

    def __init__(self, reference=reference_s, clock=time.perf_counter):
        self.reference = reference
        self.clock = clock
        self.refs: list[float] = []
        self._t0: float | None = None  # start of the open stretch
        self._raw = self._scaled = 0.0

    def _close_stretch(self) -> None:
        raw = self.clock() - self._t0
        self.refs.append(self.reference())
        self._raw += raw
        self._scaled += scale(raw, self.refs[-2], self.refs[-1])
        self._t0 = self.clock()

    def tick(self) -> None:
        if self._t0 is not None and self.clock() - self._t0 >= INTERVAL_S:
            self._close_stretch()

    def start(self) -> None:
        if not self.refs:
            for _ in range(WARMUP_RUNS):
                self.reference()
            self.refs.append(self.reference())
        self._raw = self._scaled = 0.0
        self._t0 = self.clock()

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds since start(), without the loop's time."""
        self._close_stretch()
        self._t0 = None
        return self._raw, self._scaled
