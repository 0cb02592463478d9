"""Host-speed reference: a fixed pure-Python loop timed around each sample.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes (other tenants' load on the same cores, caches and
memory bus).  Every sample therefore also times this loop, a few short
rounds just before and just after the workload, in the same process.
``run.py`` scales the sample's times by ``NOMINAL_S`` over the loop's
median round, raised to ``ELASTICITY``, so that a minute in which the
host runs everything slower moves the reported figure little.  The
loop uses no ``repro`` code, so a change to the program moves the
workload's time and not the reference.

The loop does the kinds of work the simulator does: small objects with
attributes and method calls, a time-ordered heap of tuples, dict
counters, byte strings built and sliced, and reads at random places in
a pool of objects a few megabytes large.
"""

from __future__ import annotations

import heapq
import struct
import time
from typing import List

POOL_SIZE = 50_000
ROUND_STEPS = 5_500
ROUNDS = 7
# Median round time on an idle host of the kind the benchmark was
# written on (2.1 GHz Xeon, CPython 3); scaled figures read in seconds
# at that speed.
NOMINAL_S = 0.010
# A host that makes the loop k times slower makes the workloads about
# k ** ELASTICITY times slower: the loop is hit harder by other tenants
# than the simulator is (fitted over runs of all three workloads on
# that host, see NOTES.md).
ELASTICITY = 0.7


class _Item:
    __slots__ = ("key", "size", "payload")

    def __init__(self, key: int, size: int) -> None:
        self.key = key
        self.size = size
        self.payload = {"key": key, "hops": 0}

    def advance(self, now: int) -> int:
        self.payload["hops"] += 1
        return now + (self.key & 1023) + self.size


_pack = struct.Struct("!IHH").pack


def _round(pool: List[_Item]) -> float:
    start = time.perf_counter()
    heap: list = []
    counts: dict = {}
    state = 12345
    now = 0
    for step in range(ROUND_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        item = pool[state % POOL_SIZE]
        now = item.advance(now)
        heapq.heappush(heap, (now, step, item))
        if len(heap) > 256:
            now, _, item = heapq.heappop(heap)
        counts[item.size & 63] = counts.get(item.size & 63, 0) + 1
        header = _pack(item.key, item.size, step & 0xFFFF)
        fresh = _Item(step, len(header + bytes(item.size & 255)[:32]))
        counts[fresh.size] = counts.get(fresh.size, 0) + 1
    return time.perf_counter() - start


def reference_rounds() -> List[float]:
    """Time ``ROUNDS`` rounds of the loop (one untimed first).  The pool
    is freed on return, so it does not stay in the sample's memory."""
    pool = [_Item(i, 64 + i % 1400) for i in range(POOL_SIZE)]
    _round(pool)
    return [_round(pool) for _ in range(ROUNDS)]
