"""Host normalisation: a fixed pure-Python reference loop.

On a shared host the same pure-Python work can take twice as long
from one few-second regime to the next.  Every timed operation is
therefore bracketed by a run of :func:`reference_loop` (a label-setting
Dijkstra over a fixed 24x24 grid, the same mix of heap, dict, tuple
and float work as the program's kernels), and its wall time is
rescaled to a host on which that loop takes :data:`NOMINAL_REF_MS`:

    normalised = wall * NOMINAL_REF_MS / mean(ref_before, ref_after)

Normalised figures keep their units (ms, s); raw wall figures are
printed beside them for information only.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter_ns

#: wall time of one reference loop on the nominal host (a quiet period
#: of a 2-core x86-64 cloud VM under CPython 3.11)
NOMINAL_REF_MS = 0.55

_SIDE = 24


def _grid() -> dict[int, list[tuple[int, float]]]:
    rng = random.Random(0)
    adj: dict[int, list[tuple[int, float]]] = {}
    for r in range(_SIDE):
        for c in range(_SIDE):
            v = r * _SIDE + c
            adj[v] = []
            if c + 1 < _SIDE:
                adj[v].append((v + 1, 1.0 + rng.random()))
            if r + 1 < _SIDE:
                adj[v].append((v + _SIDE, 1.0 + rng.random()))
            if c > 0:
                adj[v].append((v - 1, 1.0 + rng.random()))
            if r > 0:
                adj[v].append((v - _SIDE, 1.0 + rng.random()))
    return adj


_ADJ = _grid()


def reference_loop() -> int:
    """The fixed reference work; returns the number of settled vertices."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, 1e300):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done)


def factor(reference_ns: float) -> float:
    """Multiplier from wall time to normalised time for an operation
    bracketed by reference samples of mean ``reference_ns``."""
    return NOMINAL_REF_MS * 1e6 / reference_ns


class Reference:
    """Samples the reference loop and turns wall times into normalised ones."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    def sample(self) -> int:
        """Run the reference loop once; returns (and keeps) its wall ns.

        The collector is paused meanwhile: a collection triggered here
        would charge the reference loop for the program's garbage.  The
        loop frees all it allocates, so it leaves the collector's
        counts as it found them.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter_ns()
            reference_loop()
            elapsed = perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples_ns.append(elapsed)
        return elapsed

    def telemetry(self) -> dict:
        """Min, median and max reference time (ms): how noisy the host was."""
        ms = [s / 1e6 for s in self.samples_ns]
        return {
            "samples": len(ms),
            "min_ms": min(ms),
            "median_ms": statistics.median(ms),
            "max_ms": max(ms),
        }
