"""A plain dict-based Dijkstra: the test oracle for the CSR kernels.

Textbook lazy-deletion binary-heap Dijkstra over
``RoadNetwork.neighbors`` (or ``in_neighbors``): no flat arrays, no
early exit, no counters.  Edges relax in adjacency order with a strict
``<`` and heap ties break on ``(distance, vertex)`` — the contract of
:mod:`repro.graph.dijkstra` — so the kernels must reproduce its
distances, predecessor tree and settle order exactly.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable

from repro.graph.road_network import RoadNetwork


def oracle_dijkstra(
    network: RoadNetwork,
    sources: int | Iterable[int],
    *,
    reverse: bool = False,
) -> tuple[dict[int, float], dict[int, int], list[tuple[float, int]]]:
    """Exhaustive Dijkstra from one source or several (all at 0).

    Returns ``(dist, pred, order)``: the distance of every reachable
    vertex, the shortest-path tree as ``vertex -> predecessor``, and
    the settled ``(distance, vertex)`` pairs in settle order.
    ``reverse=True`` follows incoming edges (distances *to* the
    sources).
    """
    if isinstance(sources, int):
        sources = (sources,)
    neighbors = network.in_neighbors if reverse else network.neighbors
    dist: dict[int, float] = {}
    pred: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    settled: set[int] = set()
    order: list[tuple[float, int]] = []
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        order.append((d, u))
        for v, w in neighbors(u):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, pred, order
