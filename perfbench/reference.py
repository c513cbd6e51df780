"""Machine-speed normalisation: a fixed reference workload sampled while
the program runs.

The benchmark runs on a few cores of a shared host whose speed moves by tens
of percent, on every time scale from milliseconds to minutes, as other
tenants come and go; the cores of one machine move independently.  A raw
pass time therefore measures the neighbours as much as the program.

:class:`Sampler` times one unit of work (a service run, or one job of a
batch) and, every ``INTERVAL_S`` of wall time while it runs, interrupts it
from a ``SIGALRM`` handler to run :func:`reference_work` and time it; it
also probes once just before and once just after the unit.  The reference
work never changes and touches none of the program, so its time moves only
with the machine.  The unit's time, less the time spent in probes, times
``REFERENCE_S`` over the reference time sampled during the unit, is the
unit's cost in seconds of a machine on which the reference work takes
``REFERENCE_S``: the normalised time.  The raw time is kept beside it.

The reference work is a small discrete-event loop built from what the
simulator spends its time on: a heap of timestamped events, small objects
with ``__slots__`` scattered over a table of some tens of MB (so cache
pressure from other tenants slows it as it slows the program), attribute
reads and writes, bound-method calls and float arithmetic.  Probing densely
matters: the machine's speed one probe apart (10 ms) correlates at ~0.8,
half a second apart at ~0.5.  On the serve-poisson pass, probes every 10 ms
cut the pass-to-pass spread of one seed's pass times from 15% to 3%
(coefficient of variation); probes every 25 ms of a cache-resident loop
only to 9%.
"""

from __future__ import annotations

import heapq
import math
import signal
from dataclasses import dataclass
from time import perf_counter, process_time

#: Events of one probe's reference work.
PROBE_EVENTS = 2000
#: Objects in the table the reference work walks.
TABLE_SLOTS = 300_000
#: Host seconds one probe takes on a quiet 2-vCPU x86-64 VM with CPython 3
#: (its 10th percentile there); normalised times are seconds of that machine.
REFERENCE_S = 0.0022
#: Wall seconds between probes while a unit runs.
INTERVAL_S = 0.010


class _Slot:
    __slots__ = ("node", "busy_until", "done")

    def __init__(self, node: int) -> None:
        self.node = node
        self.busy_until = 0.0
        self.done = 0

    def finish(self, now: float, work: float, speed: float) -> float:
        self.done += 1
        self.busy_until = now + work / speed
        return self.busy_until


_table: list[_Slot] = []


def reference_work(events: int = PROBE_EVENTS) -> float:
    """Run a fixed toy event loop; returns the last event's time."""
    if not _table:
        _table.extend(_Slot(i % 11) for i in range(TABLE_SLOTS))
    heap = [(0.0, i) for i in range(48)]
    j = 12345
    now = 0.0
    for k in range(events):
        now, i = heapq.heappop(heap)
        j = (j * 1103515245 + 12345) % TABLE_SLOTS
        slot = _table[j]
        heapq.heappush(heap, (slot.finish(now, 1.0 + k % 101 / 101.0,
                                          1.0 + 0.05 * slot.node), i))
    return now


@dataclass
class UnitTime:
    """Host seconds of one unit of work, raw and normalised."""

    wall: float
    cpu: float
    norm_wall: float
    norm_cpu: float
    probes: int


class Sampler:
    """Times units of work with reference probes running alongside."""

    def __init__(self, probing: bool = True) -> None:
        self.probing = probing
        if probing:
            reference_work(1)  # build the table outside any timing
        self._walls: list[float] = []
        self._cpus: list[float] = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0

    def _probe(self, *_signal_args) -> None:
        wall, cpu = perf_counter(), process_time()
        reference_work()
        probe_wall, probe_cpu = perf_counter() - wall, process_time() - cpu
        self._walls.append(probe_wall)
        self._cpus.append(probe_cpu)
        # The handler's own cost counts as probe time, not the unit's.
        self._spent_wall += perf_counter() - wall
        self._spent_cpu += process_time() - cpu

    def time(self, fn):
        """Run ``fn()``; returns its result and its :class:`UnitTime`.

        Without probing the normalised times are NaN.
        """
        if not self.probing:
            wall, cpu = perf_counter(), process_time()
            result = fn()
            wall, cpu = perf_counter() - wall, process_time() - cpu
            return result, UnitTime(wall, cpu, math.nan, math.nan, 0)
        self._walls, self._cpus = [], []
        self._probe()
        self._spent_wall = self._spent_cpu = 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        wall, cpu = perf_counter(), process_time()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall, cpu = perf_counter() - wall, process_time() - cpu
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent_wall
        cpu -= self._spent_cpu
        self._probe()
        # Probes sample the machine evenly in wall time, so the mean of
        # their speeds is the machine's mean speed over the unit.
        speed_wall = sum(REFERENCE_S / w for w in self._walls) / len(self._walls)
        speed_cpu = sum(REFERENCE_S / max(c, 1e-9) for c in self._cpus) / len(self._cpus)
        return result, UnitTime(wall, cpu, wall * speed_wall, cpu * speed_cpu,
                                len(self._walls))
