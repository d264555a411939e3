"""Times that the host's load does not move.

advlab's jobs are single-threaded Python, and this machine is a virtual
machine of two cores on a shared host.  The host's other work slows the
CPU itself (shared caches, sibling hardware threads): the same fixed loop
runs up to twice as long, in phases that last from under a second to many
minutes, while the machine's own clocks show nothing (CPU time reads as
wall time, steal time stays near zero).  A median over one run cannot
remove a slowdown that outlasts the run, so the benchmark measures the
slowdown while it runs and reports each time at a nominal speed:

- the job: `SpeedProbe` runs a fixed pure-Python reference loop (~1.5 ms)
  every PERIOD_S of the job's CPU time, from a SIGPROF handler, so it
  samples the speed inside long calls as well as between them.
  `SpeedProbe.corrected(a, b)` is the job's wall time in [a, b], without
  the probes' own, with each stretch between two probes scaled by
  NOMINAL_S / (the probe time there, a mean over its neighbours);
- the set-up, which is mostly starting an interpreter and importing:
  `time_interpreter` times a bare interpreter that imports a few standard
  modules, started just before the measured one, and the set-up time is
  scaled by NOMINAL_START_S / that time.

Each reference was chosen because its time follows the time of the work
it stands for as the host's load changes.  Measured over three minutes of
a shifting load, in 4 s windows: advlab's own algebra code slowed as the
loop's time to the power 0.99, its CLI path to the power 0.70; set-up
slowed as the bare interpreter's time to the power 0.91 (correlation
0.90).  A tight integer loop followed the algebra code only to the power
0.68, and set-up to the power 0.37.  NOMINAL_S and NOMINAL_START_S are
round figures near the references' times on an idle VM with Python
3.11.7, so there corrected and wall times are close.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import subprocess
import sys
from time import perf_counter as clock

PERIOD_S = 0.05
NOMINAL_S = 0.0013
NOMINAL_START_S = 0.060
SMOOTH = 2  # a probe's time is the mean over it and SMOOTH neighbours on each side
REFERENCE_IMPORTS = "import argparse, dataclasses, itertools, json, random, statistics"


class _Record:
    __slots__ = ("index", "key")

    def __init__(self, index: int, key: int):
        self.index = index
        self.key = key


def _bits(records):
    for r in records:
        yield r.index ^ r.key


def reference_loop() -> int:
    """A fixed mix of what advlab's code does, twice over.

    Building and sorting tuples, grouping small objects in a dict of
    lists, frozenset intersections, a generator pipeline and JSON encoding;
    its data stay under a hundred kilobytes.
    """
    acc = 0
    for _ in range(2):
        items = sorted((i * 2654435761 & 0xFFFF, i) for i in range(500))
        groups: dict[int, list[_Record]] = {}
        for key, i in items:
            groups.setdefault(key & 0x3F, []).append(_Record(i, key))
        sets = [frozenset(r.index for r in group[:5]) for group in groups.values()]
        for a in sets[:20]:
            for b in sets[:20]:
                acc += len(a & b)
        acc += sum(_bits(r for group in groups.values() for r in group))
        acc += len(json.dumps({str(k): [r.index for r in group] for k, group in groups.items()}, sort_keys=True))
    return acc


def time_reference() -> float:
    """Wall time of one reference loop, with the garbage collector held off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        reference_loop()
        return clock() - t0
    finally:
        if collecting:
            gc.enable()


def time_interpreter(cwd, env) -> float:
    """Wall time to start an interpreter that imports REFERENCE_IMPORTS and exits."""
    t0 = clock()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], cwd=cwd, env=env, check=True, timeout=60)
    return clock() - t0


class SpeedProbe:
    """Times the reference loop every PERIOD_S of CPU time while active (a context manager).

    Stamps and durations are on the wall clock `clock`.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []

    def _sample(self, signum, frame):
        self.starts.append(clock())
        self.times.append(time_reference())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._sample(None, None)
        n = len(self.times)
        self._smoothed = [statistics.fmean(self.times[max(0, i - SMOOTH):i + SMOOTH + 1]) for i in range(n)]
        # Job time runs in the gaps between probes: gap i is [end of probe i, start of probe i + 1].
        self._gap_starts = [s + t for s, t in zip(self.starts, self.times)]
        return False

    def wall(self, a: float, b: float) -> float:
        """Job wall time in [a, b], without the probes' own."""
        return self._integrate(a, b, lambda i: 1.0)

    def corrected(self, a: float, b: float) -> float:
        """Job wall time in [a, b] at the nominal speed."""
        return self._integrate(a, b, lambda i: NOMINAL_S / ((self._smoothed[i] + self._smoothed[i + 1]) / 2))

    def slowdown(self) -> float:
        """Median probe time over NOMINAL_S: above 1 when the CPU ran slower than nominal."""
        return statistics.median(self.times) / NOMINAL_S

    def _integrate(self, a: float, b: float, weight) -> float:
        # [a, b] lies inside the probe's active period, whose first and last
        # act are a probe, so every instant of job time falls in some gap.
        total = 0.0
        i = max(0, bisect.bisect_right(self._gap_starts, a) - 1)
        while i + 1 < len(self.starts) and self._gap_starts[i] < b:
            lo, hi = max(a, self._gap_starts[i]), min(b, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * weight(i)
            i += 1
        return total
