"""The Dijkstra-based OSR solution ("Dij", Sharifzadeh et al. [16]).

Finds the *optimal sequenced route*: the shortest route from a start
vertex visiting one PoI from each candidate set in order.  The search
runs Dijkstra over the *state-expanded* graph whose states are
``(vertex, matched-prefix-length)``: traversing a road edge keeps the
layer, standing on a PoI of the next candidate set may advance it at
zero cost.  The first settled state in the final layer is optimal.

Faithful to the paper's implementation notes, every queue entry carries
its partial *route* (the matched PoI prefix): "as Dij stores many
routes in the priority queue, RSS is significantly larger than those of
the other algorithms" (Section 7.2, Table 6) — this is the memory-heavy
baseline by construction.

Note: like the original OSR formulation, the state expansion does not
track *which* PoIs were used, so a PoI could repeat across positions if
candidate sets overlap.  The SkySR experiments draw positions from
distinct category trees, where overlap is impossible; callers that
allow overlap must filter (``repro.baselines.naive`` does).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Collection

from repro.core.stats import SearchStats
from repro.graph.road_network import RoadNetwork


def osr_dijkstra(
    network: RoadNetwork,
    start: int,
    candidate_sets: list[Collection[int]],
    *,
    destination: int | None = None,
    stats: SearchStats | None = None,
) -> tuple[float, tuple[int, ...]] | None:
    """Optimal sequenced route via a state-expanded Dijkstra.

    Returns ``(length, pois)`` or ``None`` when no route exists.  When
    ``destination`` is given the returned length includes the final leg
    and optimality is with respect to the total.
    """
    n = len(candidate_sets)
    sets = [
        c if isinstance(c, (set, frozenset)) else set(c)
        for c in candidate_sets
    ]
    if any(not s for s in sets):
        return None
    serial = itertools.count()
    # No shared kernel fits: this searches the layered (vertex, layer)
    # product graph, not the road network.
    # (distance, tiebreak, vertex, layer, matched PoI route).  Every
    # entry owns its route *by value* (list copy), mirroring the
    # reference implementation's std::vector-in-priority-queue layout —
    # the very reason Table 6 shows Dij as the memory-heavy algorithm.
    heap: list[tuple[float, int, int, int, list[int]]] = [
        (0.0, next(serial), start, 0, [])
    ]
    settled: set[tuple[int, int]] = set()
    while heap:
        d, _, u, layer, route = heapq.heappop(heap)
        state = (u, layer)
        if state in settled:
            continue
        settled.add(state)
        if stats is not None:
            stats.settled += 1
        if layer == n and (destination is None or u == destination):
            return d, tuple(route)
        if layer < n and u in sets[layer]:
            heapq.heappush(
                heap, (d, next(serial), u, layer + 1, route + [u])
            )
        for v, w in network.neighbors(u):
            if stats is not None:
                stats.relaxed += 1
            if (v, layer) not in settled:
                heapq.heappush(
                    heap, (d + w, next(serial), v, layer, list(route))
                )
    return None
