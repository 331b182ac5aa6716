"""Timing a workload: set-up repeats, slices, the machine yardstick.

All clocks here are wall clocks (``time.perf_counter``), scaled by the
yardstick (see below); the simulated clock never enters an end-to-end
number.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.crypto import keycache

from benchmarks.ledger.world import Scale
from benchmarks.ledger.workloads import Workload

#: Target wall length of one slice at the workload's budget rate.  Short,
#: because the yardstick is read on both sides of every slice and the
#: host's speed drifts within tenths of a second.
SLICE_SECONDS = 0.05

# -- the machine yardstick ---------------------------------------------------
#
# The benchmark runs on a shared two-core virtual machine whose speed
# swings by a third for minutes at a time (a neighbour on the sibling
# hardware thread), far more than any bound worth setting.  So every
# timed interval is bracketed by two readings of a yardstick and scaled
# to the speed the yardstick says the machine had: a *calibrated* second
# is the work this machine does in one second while the yardstick runs
# at ``REFERENCE_RATE``.
#
# The yardstick is frozen on purpose: a table-driven Feistel loop on
# Python integers, the shape of the program's own hot loops, sharing no
# code with ``src/`` so that no change there can move it.  Do not
# "improve" it; every recorded number depends on it.

YARDSTICK_BLOCKS = 110
YARDSTICK_ROUNDS = YARDSTICK_BLOCKS * 16
#: Yardstick rounds per second at which calibrated time equals wall time
#: (about this machine's undisturbed speed when the ledger was defined).
REFERENCE_RATE = 1.0e6

#: Eight tables of 1,024 distinct integers: about 300 KB of objects, so
#: the loop feels a neighbour in the shared cache the way the program
#: does (a 64-entry table did not, and tracked the workloads worse).
_SP = tuple(
    tuple(
        (j * 2654435761 + k * 40503 + (j << 33)) & 0xFFFFFFFFFFFF
        for j in range(1024)
    )
    for k in range(8)
)
_KS = tuple((k * 0x1234567 + 99) & 0xFFFFFFFFFFFF for k in range(16))


def yardstick(blocks: int = YARDSTICK_BLOCKS) -> int:
    s0, s1, s2, s3, s4, s5, s6, s7 = _SP
    left, right = 0x01234567, 0x89ABCDEF
    for _ in range(blocks):
        for k in _KS:
            t = (right * 0x9E3779B1) ^ k
            f = (
                s0[t & 1023] ^ s1[(t >> 10) & 1023] ^ s2[(t >> 20) & 1023]
                ^ s3[(t >> 30) & 1023] ^ s4[(t >> 4) & 1023]
                ^ s5[(t >> 9) & 1023] ^ s6[(t >> 14) & 1023]
                ^ s7[(t >> 19) & 1023]
            )
            left, right = right, (left ^ f) & 0xFFFFFFFF
    return left


def yardstick_rate() -> float:
    """Yardstick rounds per second, right now."""
    t0 = time.perf_counter()
    yardstick()
    return YARDSTICK_ROUNDS / (time.perf_counter() - t0)


class Stopwatch:
    """Calibrated time over a sequence of laps.

    ``lap()`` ends the current lap with a yardstick reading and starts
    the next one after it; a lap's calibrated length is its wall length
    times the mean of the readings on either side over
    ``REFERENCE_RATE``.
    """

    def __init__(self) -> None:
        self.calibrated = 0.0
        self.rates: List[float] = [yardstick_rate()]
        self._started = time.perf_counter()

    def lap(self) -> None:
        wall = time.perf_counter() - self._started
        rate = yardstick_rate()
        self.calibrated += wall * factor(self.rates[-1], rate)
        self.rates.append(rate)
        self._started = time.perf_counter()


def factor(rate_before: float, rate_after: float) -> float:
    """Calibrated seconds per wall second between two readings."""
    return (rate_before + rate_after) / 2.0 / REFERENCE_RATE


# -- set-up ------------------------------------------------------------------


def build(cls, seed: int, scale: Scale) -> Tuple[Workload, List[float]]:
    """Build the workload's world ``scale.setup_builds`` times, each from
    cold process-wide caches, and keep the last.  Returns the workload
    and every build's calibrated seconds (the constructors call
    ``tick`` between their stages, so the yardstick is read throughout
    the build, not just around it)."""
    times: List[float] = []
    workload: Optional[Workload] = None
    for _ in range(scale.setup_builds):
        workload = None
        gc.collect()
        keycache.clear()
        watch = Stopwatch()
        workload = cls(seed, scale, tick=watch.lap)
        watch.lap()
        times.append(watch.calibrated)
    return workload, times


def steps_for(cls, seconds: float, fraction: float = 1.0) -> Tuple[int, int]:
    """(steps, slices) for a run sized to ``seconds`` at the workload's
    budget rate: whole slices of about ``SLICE_SECONDS``, at least one."""
    step_seconds = cls.ops_per_step / cls.budget_ops_per_s
    per_slice = max(1, round(SLICE_SECONDS / step_seconds))
    slices = max(1, round(seconds * fraction / (per_slice * step_seconds)))
    return per_slice * slices, slices


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the run -----------------------------------------------------------------


@dataclass
class Measurement:
    """One run.  Seconds are calibrated unless the name says ``wall``."""

    ops: int = 0
    #: Σ over timed steps (untimed glue excluded).
    seconds: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    slice_rates: List[float] = field(default_factory=list)
    #: One per step: calibrated step seconds ÷ ops in the step, in ms.
    latencies_ms: List[float] = field(default_factory=list)
    #: One per step: calibrated seconds per wall second while it ran.
    step_factors: List[float] = field(default_factory=list)
    yardstick_rates: List[float] = field(default_factory=list)
    failed: int = 0
    digest: str = ""

    @property
    def ops_per_s(self) -> float:
        """The upper-quartile slice rate.  Interference only ever slows
        a slice, so the upper quartile repeats better than the median."""
        if len(self.slice_rates) < 2:
            return self.slice_rates[0]
        return statistics.quantiles(self.slice_rates, n=4)[2]

    @property
    def us_per_op(self) -> float:
        return self.seconds / self.ops * 1e6

    def percentile_ms(self, q: float) -> float:
        ranked = sorted(self.latencies_ms)
        return ranked[min(len(ranked) - 1, int(q * len(ranked)))]

    @property
    def norm_ops(self) -> float:
        """Median slice rate per million yardstick rounds: the calibrated
        median rate with the reference speed divided back out."""
        return statistics.median(self.slice_rates) / REFERENCE_RATE * 1e6


def execute(
    workload: Workload, steps: int, slices: int, profiler=None, spans=None
) -> Measurement:
    """Run ``steps`` timed steps in ``slices`` equal slices, reading the
    yardstick on both sides of every slice.  Only ``workload.step`` is
    inside the timers (and, when given, inside the profiler and the span
    recorder)."""
    per_slice = steps // slices
    out = Measurement(ops=steps * workload.ops_per_step)
    gc.collect()
    for s in range(slices):
        todo = range(s * per_slice, (s + 1) * per_slice)
        workload.prepare(todo)
        walls: List[float] = []
        rate_before = yardstick_rate()
        for i in todo:
            raised = None
            if spans is not None:
                spans.begin_op(i)
            if profiler is not None:
                profiler.enable()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                workload.step(i)
            except Exception as exc:  # counted, never retried
                raised = exc
            t1 = time.perf_counter()
            c1 = time.process_time()
            if profiler is not None:
                profiler.disable()
            if spans is not None:
                spans.end_op(i, t0, t1)
            if raised is None:
                workload.settle(i)
            else:
                workload.step_raised(i, raised)
            walls.append(t1 - t0)
            out.cpu_s += c1 - c0
        rate_after = yardstick_rate()
        scale = factor(rate_before, rate_after)
        out.yardstick_rates += [rate_before, rate_after]
        slice_seconds = sum(walls) * scale
        out.wall_s += sum(walls)
        out.seconds += slice_seconds
        out.slice_rates.append(per_slice * workload.ops_per_step / slice_seconds)
        for wall in walls:
            out.step_factors.append(scale)
            out.latencies_ms.append(wall * scale / workload.ops_per_step * 1e3)
    workload.finish()
    out.failed = workload.failed
    out.digest = workload.digest
    return out
