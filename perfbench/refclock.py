"""Reference seconds: wall time scaled by how fast a fixed probe runs.

The benchmark may run on a share of a busy host whose throughput moves by a
factor of two within seconds while the process never leaves the CPU (its CPU
time equals its wall time), so plain wall time mostly measures the host.
Reference seconds take most of that out: each stretch of wall time is
multiplied by `PROBE_NOMINAL_S / p`, where `p` is how long a fixed piece of
pure-Python work, the probe, took just before the stretch. Where the probe
takes `PROBE_NOMINAL_S`, one reference second is one wall second.

The probe does what the program mostly does: it parses a small JSON table of
rationals into `Fraction`s, then multiplies and adds them. It imports nothing
from evslib, so no change to the program can change the probe.
"""

from __future__ import annotations

import gc
import json
import signal
from fractions import Fraction
from time import perf_counter

#: the probe's time on a quiet 2-vCPU Xeon KVM guest under CPython 3.11; a
#: constant of the benchmark, not a measurement it takes
PROBE_NOMINAL_S = 3.0e-4
PROBE_REPEATS = 3
#: wall seconds between two probes while a pass runs, and while a set-up
#: runs: a set-up is short, so it is probed more often to average as many
#: readings; the probes' own time is left out either way
TICK_S = 0.05
SETUP_TICK_S = 0.01

_TABLE = json.dumps([[f"{i * j + 1}/{i + j + 1}" for j in range(8)]
                     for i in range(8)])


def _probe_once() -> Fraction:
    rows = [[Fraction(v) for v in row] for row in json.loads(_TABLE)]
    total = Fraction(0)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            total += v * rows[j][i]
    return total


def probe() -> float:
    """Seconds the probe takes now: the mean of PROBE_REPEATS tries, with
    the garbage collector held off so that no collection lands in it. The
    mean, not the fastest try, because the program runs at the host's
    average speed, which can change within a millisecond."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PROBE_REPEATS):
            _probe_once()
        return (perf_counter() - t0) / PROBE_REPEATS
    finally:
        if enabled:
            gc.enable()


def tick() -> tuple[float, float, float]:
    """Probe now: (probe start, probe end, factor that turns wall seconds
    into reference seconds), the times from `perf_counter`, which all
    processes of the machine share."""
    t0 = perf_counter()
    factor = PROBE_NOMINAL_S / probe()
    return t0, perf_counter(), factor


class Ticks:
    """Probes the speed every `every` wall seconds from a timer signal,
    while the `with` block runs, and keeps the `tick()`s in memory, after
    any it is given. The probes' own time counts in no interval."""

    def __init__(self, ticks=(), every: float = TICK_S):
        self.ticks: list[tuple[float, float, float]] = list(ticks)
        self.every = every

    def _tick(self, *_) -> None:
        self.ticks.append(tick())

    def __enter__(self) -> "Ticks":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval [start, end]: each stretch
        between two probes weighted by the factor of the probe before it."""
        total = 0.0
        for k, (_, busy_end, factor) in enumerate(self.ticks):
            following = (self.ticks[k + 1][0] if k + 1 < len(self.ticks)
                         else float("inf"))
            lo, hi = max(start, busy_end), min(end, following)
            if hi > lo:
                total += (hi - lo) * factor
            if following >= end:
                break
        return total
