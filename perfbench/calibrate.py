"""A speed probe, so times from a shared machine can be compared.

On a machine shared with other tenants the same op can take 1.5x longer
from one minute to the next while the process is never descheduled (CPU
time tracks wall time): the core itself runs slower.  The probe times a
fixed loop that exercises what the simulator spends its time on -- an
event heap, small objects with slots, dict updates, float math and
scalar numpy draws -- but calls no simulator code, so a faster simulator
never makes the probe faster.  Each op is bracketed by two probes, and
its times are scaled by ``REFERENCE_PROBE_S / probe`` into seconds at
the reference speed: the speed at which the probe takes
``REFERENCE_PROBE_S``, roughly a quiet 2-vCPU Xeon host running
CPython 3.11 and numpy 2.4.  The probe tracks the simulator's speed
only in part (on such a host their run-level correlation was about
0.8-0.9), so scaled times still carry some of the drift.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy

#: Host seconds one probe takes at the reference speed.
REFERENCE_PROBE_S = 0.015

_EVENTS = 10_000


class _Station:
    __slots__ = ("energy", "count")

    def __init__(self) -> None:
        self.energy = 0.0
        self.count = 0

    def absorb(self, power: float) -> float:
        self.energy += power
        self.count += 1
        return self.energy


def _loop() -> float:
    rng = numpy.random.default_rng(12345)
    stations = [_Station() for _ in range(32)]
    seen = {}
    heap = [(0, 0, 0)]
    total = 0.0
    for seq in range(1, _EVENTS):
        now, _, target = heapq.heappop(heap)
        power = 10.0 ** (float(rng.normal(0.0, 5.0)) / 10.0)
        level = stations[target].absorb(power)
        seen[target] = seen.get(target, 0) + 1
        total += math.log10(1.0 + level)
        heapq.heappush(heap, (now + 1 + (seq * 7919) % 97, seq, (target * 13 + seq) & 31))
        if seq & 1:
            heapq.heappush(heap, (now + 3 + seq % 11, -seq, seq & 31))
            heapq.heappop(heap)
    return total


def probe_s() -> float:
    """Host seconds one run of the fixed loop takes right now."""
    started = time.perf_counter()
    _loop()
    return time.perf_counter() - started
