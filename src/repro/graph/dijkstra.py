"""Dijkstra variants used across the library.

Four flavors, all lazy-deletion binary-heap implementations over
:class:`~repro.graph.road_network.RoadNetwork`:

* :func:`dijkstra` — full single-source distances (optionally with
  predecessors for path reconstruction, optionally terminating early
  once a ``target`` vertex settles);
* :func:`bounded_dijkstra` — single-source distances restricted to a
  radius (used to restrict candidate sets to the ``l̄(ϕ)`` ball in
  Algorithm 4 line 3);
* :func:`multi_source_min_distance` — the paper's multi-source
  multi-destination Dijkstra (Section 5.3.3, Lemma 5.9): minimum
  distance from *any* source to *any* destination, stopping at the
  first settled destination;
* :class:`ResumableDijkstra` — an incremental expansion that yields
  settled vertices in distance order and can be resumed with a larger
  radius later; this powers both the PNE baseline's progressive
  nearest-neighbor streams and BSSR's on-the-fly cache.

Every flavor runs one kernel over the flat adjacency arrays of
:mod:`repro.graph.csr`, whose inner loop indexes python lists instead
of hashing dict keys.  Edges relax in ``network.neighbors`` order and
heap ties break on ``(distance, vertex)``, so distances, predecessors
and settle orders equal a textbook dict-based Dijkstra's; the property
layer pins this against a test oracle (``tests/test_csr.py``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Collection
from dataclasses import dataclass

from repro.graph.csr import batched_min_distances, flat_adjacency
from repro.graph.road_network import RoadNetwork


@dataclass
class ExpansionCounters:
    """Optional instrumentation for a single Dijkstra run.

    Pass an instance via the ``counters`` keyword to observe how much
    of the graph a search actually touched — the early-termination
    regression tests assert ``settled`` drops when a ``target`` is
    supplied, and benchmarks report it as search volume.
    """

    settled: int = 0
    relaxed: int = 0


def dijkstra(
    network: RoadNetwork,
    source: int,
    *,
    reverse: bool = False,
    with_predecessors: bool = False,
    target: int | None = None,
    counters: ExpansionCounters | None = None,
) -> dict[int, float] | tuple[dict[int, float], dict[int, int]]:
    """Single-source shortest-path distances.

    Args:
        network: the graph.
        source: start vertex.
        reverse: traverse incoming edges instead (distances *to*
            ``source``; used by the destination extension).
        with_predecessors: also return the shortest-path tree.
        target: stop as soon as this vertex settles (its distance is
            then final).  With a target the returned dict still
            contains every *touched* vertex, but only settled entries
            are final — callers that need all distances must omit it.
        counters: optional :class:`ExpansionCounters` to fill.
    """
    n, indptr, indices, weights = flat_adjacency(network, reverse=reverse)
    inf = math.inf
    dist = [inf] * n
    dist[source] = 0.0
    touched = [source]
    settled = bytearray(n)
    pred = [-1] * n if with_predecessors else None
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    nsettled = 0
    nrelaxed = 0
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        settled[u] = 1
        nsettled += 1
        if u == target:
            break
        for i in range(indptr[u], indptr[u + 1]):
            nrelaxed += 1
            v = indices[i]
            nd = d + weights[i]
            if nd < dist[v]:
                if dist[v] == inf:
                    touched.append(v)
                dist[v] = nd
                if pred is not None:
                    pred[v] = u
                push(heap, (nd, v))
    if counters is not None:
        counters.settled += nsettled
        counters.relaxed += nrelaxed
    out = {v: dist[v] for v in touched}
    if pred is not None:
        return out, {v: pred[v] for v in touched if pred[v] >= 0}
    return out


def bounded_dijkstra(
    network: RoadNetwork,
    source: int,
    radius: float,
    *,
    reverse: bool = False,
    counters: ExpansionCounters | None = None,
) -> dict[int, float]:
    """Distances from ``source`` strictly below ``radius``.

    Every returned distance is final (settled); vertices at distance
    ``>= radius`` are omitted.
    """
    if radius == math.inf:
        result = dijkstra(
            network, source, reverse=reverse, counters=counters
        )
        assert isinstance(result, dict)
        return result
    n, indptr, indices, weights = flat_adjacency(network, reverse=reverse)
    dist = [math.inf] * n
    dist[source] = 0.0
    settled = bytearray(n)
    out: dict[int, float] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    push, pop = heapq.heappush, heapq.heappop
    nrelaxed = 0
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        if d >= radius:
            break
        settled[u] = 1
        out[u] = d
        for i in range(indptr[u], indptr[u + 1]):
            nrelaxed += 1
            v = indices[i]
            nd = d + weights[i]
            if nd < radius and nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    if counters is not None:
        counters.settled += len(out)
        counters.relaxed += nrelaxed
    return out


def shortest_path(
    network: RoadNetwork,
    source: int,
    target: int,
    *,
    counters: ExpansionCounters | None = None,
) -> tuple[float, list[int]]:
    """Distance and vertex path from ``source`` to ``target``.

    Terminates as soon as ``target`` settles (its label is then final)
    instead of exhausting the whole graph — on a preset city this
    settles a strict subset of the vertices a full run would (pinned by
    a regression test).  Returns ``(inf, [])`` when unreachable.
    """
    dist, pred = dijkstra(
        network,
        source,
        with_predecessors=True,
        target=target,
        counters=counters,
    )
    if target not in dist:
        return math.inf, []
    path = [target]
    while path[-1] != source:
        path.append(pred[path[-1]])
    path.reverse()
    return dist[target], path


def multi_source_min_distance(
    network: RoadNetwork,
    sources: Collection[int],
    targets: Collection[int],
    *,
    radius: float = math.inf,
    reverse: bool = False,
    counters: ExpansionCounters | None = None,
) -> float:
    """Minimum network distance between two vertex sets (Lemma 5.9).

    All sources start at distance 0 in one priority queue; the first
    settled target yields the exact minimum.  When the search is
    truncated by ``radius`` before reaching a target, ``radius`` itself
    is returned — a valid *lower bound*, which is all the caller
    (Algorithm 4) needs.  Returns ``inf`` when the sets cannot be
    connected at all (and ``0.0`` when the sets overlap).

    ``reverse=True`` traverses incoming edges — the minimum distance
    from any *target-set* vertex to any *source-set* vertex on a
    directed graph, matching :func:`dijkstra`'s convention.
    """
    if not sources or not targets:
        return math.inf
    target_set = targets if isinstance(targets, (set, frozenset)) else set(targets)
    if radius == math.inf and counters is None:
        # Untruncated searches relax until a target settles wherever it
        # is, so the vectorized full-fixpoint sweep wins; the scalar
        # kernel keeps the radius-truncated hot path (Algorithm 4),
        # where stopping at the ball's edge beats any batch width.  The
        # sweep's labels are bit-identical to Dijkstra's (see
        # :func:`repro.graph.csr.batched_min_distances`), so the
        # minimum over targets is the same float either way.
        row = batched_min_distances(network, sources, reverse=reverse)
        if row is not None:
            return min((row[t] for t in target_set), default=math.inf)
    n, indptr, indices, weights = flat_adjacency(network, reverse=reverse)
    dist = [math.inf] * n
    heap: list[tuple[float, int]] = []
    for s in sources:
        dist[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    settled = bytearray(n)
    push, pop = heapq.heappush, heapq.heappop
    settled_n = relaxed_n = 0
    result = math.inf
    while heap:
        d, u = pop(heap)
        if settled[u]:
            continue
        if d >= radius:
            result = radius
            break
        settled[u] = 1
        settled_n += 1
        if u in target_set:
            result = d
            break
        lo = indptr[u]
        hi = indptr[u + 1]
        relaxed_n += hi - lo
        for i in range(lo, hi):
            v = indices[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
    if counters is not None:
        counters.settled += settled_n
        counters.relaxed += relaxed_n
    return result


def eccentricity(
    network: RoadNetwork, source: int, *, reverse: bool = False
) -> float:
    """Largest finite shortest-path distance from ``source``.

    ``reverse=True`` measures the largest distance *to* ``source`` on
    a directed graph (both directions coincide when undirected).
    """
    row = batched_min_distances(network, (source,), reverse=reverse)
    if row is not None:
        return max((d for d in row if d < math.inf), default=0.0)
    dist = dijkstra(network, source, reverse=reverse)
    assert isinstance(dist, dict)
    return max(dist.values(), default=0.0)


class ResumableDijkstra:
    """Incremental Dijkstra that can be paused and resumed.

    Settles vertices in nondecreasing distance order.  :meth:`settle_next`
    settles one vertex and reports it; :meth:`expand_until` keeps
    settling while the next settle distance is below a (possibly
    re-evaluated) budget.  Once the heap drains the search is
    *exhausted* and resuming is a no-op.

    The on-the-fly cache of Section 5.3.4 stores one instance per
    (source PoI, query position); the PNE baseline uses one per
    (vertex, category-candidate set) as its progressive nearest-neighbor
    stream.
    """

    __slots__ = ("source", "_dist", "_settled", "_heap", "radius", "_flat")

    def __init__(self, network: RoadNetwork, source: int) -> None:
        self.source = source
        self._flat = flat_adjacency(network)
        n = self._flat[0]
        self._dist = [math.inf] * n
        self._dist[source] = 0.0
        self._settled = bytearray(n)
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        #: largest settled distance so far
        self.radius = 0.0

    @property
    def exhausted(self) -> bool:
        self._skim()
        return not self._heap

    def _skim(self) -> None:
        """Drop stale heap entries so the head is live."""
        heap = self._heap
        settled = self._settled
        while heap and settled[heap[0][1]]:
            heapq.heappop(heap)

    def next_distance(self) -> float:
        """Distance at which the next vertex would settle (inf if done)."""
        self._skim()
        return self._heap[0][0] if self._heap else math.inf

    def settle_next(self) -> tuple[float, int] | None:
        """Settle and return the next ``(distance, vertex)``; None if done."""
        self._skim()
        if not self._heap:
            return None
        d, u = heapq.heappop(self._heap)
        self.radius = d
        _, indptr, indices, weights = self._flat
        dist = self._dist
        self._settled[u] = 1
        heap = self._heap
        push = heapq.heappush
        for i in range(indptr[u], indptr[u + 1]):
            v = indices[i]
            nd = d + weights[i]
            if nd < dist[v]:
                dist[v] = nd
                push(heap, (nd, v))
        return d, u

    def expand_until(
        self, budget: Callable[[], float] | float
    ) -> list[tuple[float, int]]:
        """Settle vertices while the next settle distance < budget.

        ``budget`` may be a callable re-evaluated after every settle —
        BSSR's thresholds tighten while a search runs.
        """
        budget_fn = budget if callable(budget) else (lambda: budget)  # type: ignore[truthy-function]
        out: list[tuple[float, int]] = []
        while True:
            nxt = self.next_distance()
            if nxt == math.inf or nxt >= budget_fn():
                break
            settled = self.settle_next()
            assert settled is not None
            out.append(settled)
        return out

    def distance(self, vid: int) -> float:
        """Settled distance to ``vid`` (inf when not settled yet)."""
        return self._dist[vid] if self._settled[vid] else math.inf
