"""Calibrated timing: every timed op is measured against a fixed yardstick.

The dev box changes speed by tens of percent within seconds (the
process is not descheduled: CPU time tracks wall time), so a raw
wall-clock number says more about the minute it was taken in than about
the code.  The yardstick is :func:`calibration_unit`, ~2 ms of
interpreter work that belongs to the benchmark and never touches the
program under test, so a later change cannot speed the yardstick up
along with the program.  It is run

* ten times in a row right before and right after each op (a *slice*,
  ~20 ms), and
* every ``TICK_SECONDS`` *inside* the op, from an interval-timer signal
  handler, because a multi-second op (a 4000-node build, a 32-node sweep
  point) sees several speeds and its two ends describe none of them.

An op's cost is then reported in *calibrated seconds*::

    wall * UNIT_REF * mean(1 / unit seconds)        # wall net of tick time

i.e. the work done, ``integral of speed dt``, with speed sampled as
units per second.  Raw wall, CPU time, both slices and the tick totals
are kept in every sample so the normalisation can be audited.
"""

from __future__ import annotations

import gc
import pickle
import signal
import statistics
import struct
import time
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from typing import Any, Callable

#: Seconds one unit is defined to take.  Calibrated seconds are seconds
#: on a machine that runs the unit in exactly this time.
UNIT_REF = 0.002
#: Units per bracketing slice.
SLICE_UNITS = 10
#: Wall-clock seconds between two in-op units (~5 % of the op's time).
TICK_SECONDS = 0.040
#: An op whose two bracketing slices differ by more than this is *noisy*:
#: the machine changed speed while the op ran.
NOISY_SLICE_GAP = 0.15
#: A workload is re-run once when more than this share of its ops is noisy
#: (up to here the quiet ops alone make the medians).
NOISY_SHARE_LIMIT = 0.50

_RECORD = struct.Struct("<HIQd")


class _Cell:
    __slots__ = ("total", "last")

    def __init__(self) -> None:
        self.total = 0
        self.last = 0

    def add(self, value: int) -> int:
        self.total = (self.total + value) & 0xFFFFFFFF
        self.last = value
        return self.total


def calibration_unit() -> float:
    """Run the fixed work mix once; return its wall-clock seconds.

    About a third each of what the simulator's hot paths are made of:
    method calls with attribute stores; struct and pickle round trips of
    small records; dict stores and heap pushes/pops of small tuples.
    Large allocations are left out on purpose: on this box they slow
    down far more than the program does when the machine gets slow
    (README.md, "What the calibration can and cannot do").
    """
    start = time.perf_counter()
    cell = _Cell()
    table: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int]] = []
    x = 12345
    for i in range(450):
        for k in range(15):
            cell.add(k)
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        raw = _RECORD.pack(i & 0xFFFF, x, cell.total, i * 0.5)
        _RECORD.unpack(raw)
        pickle.loads(pickle.dumps((i, "kw%04d" % (i & 0xFF), raw), 4))
        table[x & 0xFFF] = (i, x)
        heappush(heap, (x, i))
        table[(x >> 12) & 0xFFF] = (x, i)
        heappush(heap, (x ^ i, i))
        if i & 1:
            heappop(heap)
    return time.perf_counter() - start


def calibration_slice() -> list[float]:
    return [calibration_unit() for _ in range(SLICE_UNITS)]


@dataclass
class Sample:
    """One timed op: raw readings plus the calibrated value."""

    #: wall-clock seconds of the op, net of ticks and of stopped-clock chores
    wall: float
    cpu: float
    slice_before: list[float]
    slice_after: list[float]
    #: seconds of every unit run inside the op
    ticks: list[float]
    #: seconds from the op's start to each named lap (net of ticks)
    laps: dict[str, float] = field(default_factory=dict)

    @property
    def speeds(self) -> list[float]:
        """Machine speed around and inside the op, in units per second."""
        return [1.0 / unit for unit in self.slice_before + self.ticks + self.slice_after]

    @cached_property
    def factor(self) -> float:
        """Multiplier turning this op's raw seconds into calibrated ones."""
        return UNIT_REF * statistics.fmean(self.speeds)

    @property
    def calibrated(self) -> float:
        return self.wall * self.factor

    @property
    def noisy(self) -> bool:
        low, high = sorted(
            (statistics.fmean(self.slice_before), statistics.fmean(self.slice_after))
        )
        return (high - low) / low > NOISY_SLICE_GAP

    def as_dict(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "cpu": self.cpu,
            "slice_before": statistics.fmean(self.slice_before),
            "slice_after": statistics.fmean(self.slice_after),
            "ticks": len(self.ticks),
            "tick_seconds": sum(self.ticks),
            "factor": self.factor,
            "calibrated": self.calibrated,
            "noisy": self.noisy,
            "laps": self.laps,
        }


class Meter:
    """Times ops one at a time, closed loop, each against the yardstick.

    The slice after one op doubles as the slice before the next when the
    next starts soon enough: every slice is then taken in the same state
    (right after an op), and the full collection that precedes each op
    never runs between a slice and the op it calibrates.

    Installs a ``SIGALRM`` handler, so one meter per process, made in
    the main thread.
    """

    #: A slice older than this no longer describes the machine.
    FRESH_SECONDS = 1.0

    def __init__(self) -> None:
        self.laps: dict[str, float] = {}
        self._op_start = 0.0
        self._ticks: list[float] = []
        self._stopped = 0.0
        self._last_slice: list[float] = []
        self._last_slice_at = -self.FRESH_SECONDS
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        # The program's allocations have wound up the collector: keep a
        # collection they triggered from running inside the yardstick.
        gc.disable()
        try:
            self._ticks.append(calibration_unit())
        finally:
            gc.enable()

    def _elapsed(self, now: float) -> float:
        return now - self._op_start - sum(self._ticks) - self._stopped

    def lap(self, name: str) -> None:
        """Mark a boundary inside the op being timed (e.g. end of its set-up)."""
        self.laps[name] = self._elapsed(time.perf_counter())

    def untimed(self, chore: Callable[[], None]) -> None:
        """Run the benchmark's own ``chore`` inside an op with the clock stopped."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        start = time.perf_counter()
        try:
            chore()
        finally:
            self._stopped += time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)

    def measure(self, op: Callable[[], Any]) -> tuple[Any, Sample]:
        """Run ``op()`` once; garbage is collected before, outside the timing."""
        gc.collect()
        self.laps = {}
        self._ticks = []
        self._stopped = 0.0
        if time.perf_counter() - self._last_slice_at > self.FRESH_SECONDS:
            self._last_slice = calibration_slice()
        before = self._last_slice
        cpu_start = time.process_time()
        signal.setitimer(signal.ITIMER_REAL, TICK_SECONDS, TICK_SECONDS)
        self._op_start = time.perf_counter()
        try:
            result = op()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        cpu = time.process_time() - cpu_start
        self._last_slice = calibration_slice()
        self._last_slice_at = time.perf_counter()
        return result, Sample(
            self._elapsed(end), cpu, before, self._last_slice, self._ticks, self.laps
        )


def calibrated_median(samples: list[Sample], lap: str | None = None, rest: bool = False) -> float:
    """Median calibrated seconds over ``samples``.

    With ``lap``, the part of each op up to that lap (or, with ``rest``,
    after it).  Noisy samples are left out when at least half remain.
    """
    quiet = [sample for sample in samples if not sample.noisy]
    chosen = quiet if 2 * len(quiet) >= len(samples) else samples

    def seconds(sample: Sample) -> float:
        if lap is None:
            return sample.calibrated
        head = sample.laps[lap]
        return (sample.wall - head if rest else head) * sample.factor

    return statistics.median(seconds(sample) for sample in chosen)


def noisy_share(samples: list[Sample]) -> float:
    return sum(sample.noisy for sample in samples) / len(samples) if samples else 0.0
