"""A fixed reference task, timed next to every measured part.

On a shared host the same CPU-bound work takes more CPU seconds while
other guests load the machine: a fixed loop's CPU time swung by 40%
between 5-second windows of one run, for tens of seconds at a time.  A run
therefore times this task just before and just after each part, and
expresses the part's CPU time in units of the task's.  The task is pure
Python (a heap-based Dijkstra over a fixed random graph, plus dict and
list work), like the simulator's own per-slot code, so it slows down with
it.  It never touches qkdsim and is the same in every commit.
"""

from __future__ import annotations

import heapq
import random
import time

# The unit of the benchmark's times: a cost of one reference task is
# reported as REFERENCE_S seconds.  0.03 s is about what one task took on
# the machine the benchmark was tuned on, so the figures stay close to its
# CPU seconds.
REFERENCE_S = 0.03

_N = 400
_rng = random.Random(20210915)
_ADJ = [[] for _ in range(_N)]
for _u in range(_N):
    for _v in _rng.sample(range(_N), 8):
        if _v != _u:
            w = _rng.random()
            _ADJ[_u].append((_v, w))
            _ADJ[_v].append((_u, w))


def _task() -> float:
    total = 0.0
    for source in range(0, _N, 20):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, float("inf")):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


_EXPECTED = _task()


def speed_probe(n: int = 5) -> float:
    """Median CPU seconds of n reference tasks in a row."""
    return sorted(cpu_s() for _ in range(n))[n // 2]


def cpu_s() -> float:
    """CPU seconds of one reference task; raises if its result is ever off."""
    c0 = time.process_time()
    got = _task()
    dt = time.process_time() - c0
    if got != _EXPECTED:
        raise RuntimeError(f"reference task gave {got!r}, expected {_EXPECTED!r}")
    return dt
