"""The modified Dijkstra algorithm (Algorithm 2) as a resumable search.

:class:`PoICandidateSearch` expands the road network outward from a
source vertex and *emits candidates*: PoI vertices that semantically
match one position spec and survive Lemma 5.5's two filters —

* (i) a PoI reached through another usable PoI of greater-or-equal
  similarity is suppressed (the route through it is dominated by the
  substitution route);
* (ii) traversal never continues *through* a usable perfect match
  (anything beyond is dominated by the route using that PoI).

"Usable" means not excluded — a PoI already on the route being extended
can neither be emitted nor justify a substitution (Definition 3.4
requires distinct PoIs), so excluded PoIs are transparent to both
filters.

The search is *resumable*: it settles vertices in distance order and
pauses when the consumer's budget (Lemma 5.3's threshold, re-evaluated
continuously as the skyline set improves) is reached.  BSSR's
on-the-fly cache (Section 5.3.4) keeps one instance per
``(source, position)`` and simply resumes it when a later route needs a
larger radius — reuse never sacrifices exactness.  Route-independent
caching is only used when query positions draw candidates from disjoint
category trees; otherwise BSSR builds throw-away instances with
per-route exclusions (still exact, no reuse).

Like the plain Dijkstra flavors, the expansion loop runs over the flat
adjacency arrays of :mod:`repro.graph.csr`, relaxing edges in
``network.neighbors`` order, so candidate streams (and the replay
offsets stored in checkpoints) are deterministic.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Iterator

from repro.core.spec import PositionSpec
from repro.core.stats import SearchStats
from repro.graph.csr import flat_adjacency
from repro.graph.road_network import RoadNetwork


class CHCandidateStream:
    """A final-position candidate stream served from a CH label row.

    With contraction hierarchies enabled, the *last* position's
    expansion does not need the modified Dijkstra at all: the exact
    one-to-many row from the route's endpoint to the position's full
    candidate set (one memoized label scan) is emitted sorted by
    ``(distance, vertex)`` — the heap's own tie-break.  No road-graph
    vertex is settled, so final-leg expansion cost stops scaling with
    the settle radius.

    Exactness: Lemma 5.5's filters only ever suppress *dominated*
    candidates, so emitting the unfiltered superset is skyline-exact —
    suppressed completions now lose inside the skyband instead of never
    being scored.  Distances are true shortest-path values (a
    modified-Dijkstra distance can exceed them when the shortest path
    runs through a perfect match; either way the completion is
    dominated by the route using that match, which is also scored).
    With ``k`` > 1 the relaxed skyband may therefore retain an
    alternative the substitution filters would have collapsed — the
    skyline level is identical, the alternatives are equivalent
    substitutions.

    The interface mirrors the consumer-facing subset of
    :class:`PoICandidateSearch` (``scored_until`` / ``candidates`` /
    ``exhausted`` / ``radius``), and ``start`` offsets address this
    stream's deterministic order — checkpoints written over CH streams
    are only restorable with CH enabled (serialization guards this).
    """

    __slots__ = ("candidates", "radius")

    #: the row is complete by construction; only budgets cut it short
    exhausted = True

    def __init__(self, entries: list[tuple[float, int, float]]) -> None:
        self.candidates = entries
        self.radius = entries[-1][0] if entries else 0.0

    def scored_until(
        self,
        budget: Callable[[], float] | float,
        *,
        start: int = 0,
        leg=None,
    ) -> Iterator[tuple[float, int, float, float]]:
        budget_fn: Callable[[], float] = (
            budget if callable(budget) else (lambda: budget)  # type: ignore[assignment]
        )
        get = leg.get if leg is not None else None
        candidates = self.candidates
        for i in range(start, len(candidates)):
            d, vid, sim = candidates[i]
            if d >= budget_fn():
                return
            yield d, vid, sim, 0.0 if get is None else get(vid, math.inf)


class PoICandidateSearch:
    """Resumable modified Dijkstra toward one position's candidates."""

    __slots__ = (
        "_network",
        "_spec",
        "source",
        "_exclude",
        "_stats",
        "_flat",
        "_dist",
        "_path_sim",
        "_settled",
        "_touched",
        "_heap",
        "candidates",
        "radius",
    )

    def __init__(
        self,
        network: RoadNetwork,
        spec: PositionSpec,
        source: int,
        *,
        exclude: frozenset[int] = frozenset(),
        stats: SearchStats | None = None,
    ) -> None:
        self._network = network
        self._spec = spec
        self.source = source
        self._exclude = exclude
        self._stats = stats
        self._flat = flat_adjacency(network)
        n = self._flat[0]
        self._dist = [math.inf] * n
        self._dist[source] = 0.0
        # max similarity of any usable PoI strictly on the recorded
        # shortest path from the source (Lemma 5.5 i)
        self._path_sim = [0.0] * n
        self._settled = bytearray(n)
        # vertices whose labels went finite, in discovery order; a
        # resume reads only the settled flag of settled ones, so
        # checkpoints keep their labels out (see to_dict)
        self._touched = [source]
        self._heap: list[tuple[float, int]] = [(0.0, source)]
        #: emitted candidates ``(distance, vid, similarity)`` in distance order
        self.candidates: list[tuple[float, int, float]] = []
        #: largest settled distance (the Table 7 "weight sum" proxy)
        self.radius = 0.0

    def adopt_stats(self, stats: SearchStats | None) -> None:
        """Re-point instrumentation at a different stats sink.

        A search shared across queries (:mod:`repro.core.distcache`)
        charges its work to whichever consumer is currently driving it.
        """
        self._stats = stats

    # ------------------------------------------------------------------
    # low-level stepping
    # ------------------------------------------------------------------

    def _skim(self) -> None:
        heap = self._heap
        settled = self._settled
        while heap and settled[heap[0][1]]:
            heapq.heappop(heap)

    def next_distance(self) -> float:
        """Distance of the next settle (inf when exhausted)."""
        self._skim()
        return self._heap[0][0] if self._heap else math.inf

    @property
    def exhausted(self) -> bool:
        return self.next_distance() == math.inf

    # ------------------------------------------------------------------
    # consumer interface
    # ------------------------------------------------------------------

    def candidates_until(
        self, budget: Callable[[], float] | float, *, start: int = 0
    ) -> Iterator[tuple[float, int, float]]:
        """Yield candidates with distance < budget, expanding on demand.

        ``budget`` may be a callable: BSSR's threshold tightens while
        the search runs (skyline updates shrink it), and a cached search
        serves consumers with different budgets.  Already-discovered
        candidates are replayed first; the underlying Dijkstra resumes
        only when the budget allows settling farther vertices.

        ``start`` skips the first ``start`` candidates of the stream —
        a consumer that previously stopped after consuming that many
        (the checkpoint/resume machinery of
        :class:`~repro.core.bssr.SearchState`) continues exactly where
        it left off.  Candidate order is deterministic (distance, then
        the heap's vertex-id tie-break), so the offset is meaningful
        even on a freshly rebuilt search instance.

        The budget is re-evaluated only at yield points: between two
        yields this generator is the only code running, so nothing can
        tighten the threshold mid-segment.  Stats are flushed before
        every yield and return, so a consumer (or an abandoned
        generator) never observes partial counts.
        """
        budget_fn: Callable[[], float] = (
            budget if callable(budget) else (lambda: budget)  # type: ignore[assignment]
        )
        _, indptr, indices, weights = self._flat
        sim_of = self._spec.sim_map.get
        exclude = self._exclude
        dist = self._dist
        path_sims = self._path_sim
        settled = self._settled
        heap = self._heap
        touched = self._touched
        candidates = self.candidates
        push = heapq.heappush
        pop = heapq.heappop
        inf = math.inf
        i = start
        while True:
            limit = budget_fn()
            while i < len(candidates):
                entry = candidates[i]
                if entry[0] >= limit:
                    return
                yield entry
                i += 1
                limit = budget_fn()
            # settle until a new candidate is emitted (each settle can
            # emit at most the vertex it settles) or the budget is hit
            stats = self._stats  # adopt_stats only happens between yields
            settled_n = relaxed_n = pushes_n = 0
            emitted = False
            while True:
                while heap and settled[heap[0][1]]:
                    pop(heap)
                if not heap or heap[0][0] >= limit:
                    if stats is not None:
                        stats.settled += settled_n
                        stats.relaxed += relaxed_n
                        stats.heap_pushes += pushes_n
                    return
                d, u = pop(heap)
                settled[u] = 1
                settled_n += 1
                self.radius = d
                path_sim = path_sims[u]
                sim = sim_of(u)
                if sim is not None and u not in exclude:
                    if sim > path_sim:
                        candidates.append((d, u, sim))
                        emitted = True
                    if sim >= 1.0:
                        if emitted:
                            break
                        continue  # Lemma 5.5 (ii): no traversal through
                    through = sim if sim > path_sim else path_sim
                else:
                    through = path_sim
                lo = indptr[u]
                hi = indptr[u + 1]
                relaxed_n += hi - lo
                for j in range(lo, hi):
                    v = indices[j]
                    if settled[v]:
                        continue
                    nd = d + weights[j]
                    old = dist[v]
                    if nd < old:
                        if old == inf:
                            touched.append(v)
                        dist[v] = nd
                        path_sims[v] = through
                        push(heap, (nd, v))
                        pushes_n += 1
                    elif nd == old and through < path_sims[v]:
                        path_sims[v] = through
                if emitted:
                    break
            if stats is not None:
                stats.settled += settled_n
                stats.relaxed += relaxed_n
                stats.heap_pushes += pushes_n

    def scored_until(
        self,
        budget: Callable[[], float] | float,
        *,
        start: int = 0,
        leg=None,
    ) -> Iterator[tuple[float, int, float, float]]:
        """:meth:`candidates_until` plus the consumer's extra-leg score.

        Yields ``(distance, vid, path_sim, extra)`` where ``extra`` is
        ``leg.get(vid, inf)`` — the final-position destination leg of
        BSSR's expansion, from any ``.get``-able mapping (an eager
        Dijkstra dict or the lazy
        :class:`~repro.graph.contraction.CHDistanceOracle`) — or ``0.0``
        without a ``leg``.  Centralizing the lookup keeps candidate
        scoring behind one seam; the stream and its budget/offset
        semantics are untouched (pop-identical).
        """
        if leg is None:
            for d, vid, sim in self.candidates_until(budget, start=start):
                yield d, vid, sim, 0.0
        else:
            get = leg.get
            for d, vid, sim in self.candidates_until(budget, start=start):
                yield d, vid, sim, get(vid, math.inf)

    def expand_fully(self) -> None:
        """Exhaust the search (used by tests and ablations)."""
        for _ in self.candidates_until(math.inf):
            pass

    # ------------------------------------------------------------------
    # durable checkpoints
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible snapshot of a *cached* search.

        Only route-independent instances are cacheable (BSSR builds
        throw-away searches for per-route exclusions), so an exclusion
        set here means the caller is serializing something that should
        never have reached a durable checkpoint.

        Live labels and settled vertices are emitted sorted by vertex
        id, so the payload does not depend on discovery order.
        """
        from repro.errors import SessionEncodeError

        if self._exclude:
            raise SessionEncodeError(
                "candidate searches with per-route exclusions are "
                "route-local and cannot be checkpointed"
            )
        settled = self._settled
        live = sorted(v for v in self._touched if not settled[v])
        return {
            "source": self.source,
            "dist": [[v, self._dist[v]] for v in live],
            "path_sim": [[v, self._path_sim[v]] for v in live],
            "settled": sorted(v for v in self._touched if settled[v]),
            "heap": [[d, v] for d, v in self._heap],
            "candidates": [[d, v, s] for d, v, s in self.candidates],
            "radius": self.radius,
        }

    @classmethod
    def from_dict(
        cls,
        payload: dict,
        network: RoadNetwork,
        spec: PositionSpec,
        *,
        stats: SearchStats | None = None,
    ) -> "PoICandidateSearch":
        """Rebuild a cached search exactly: same frontier, same settled
        set, same emitted candidate stream (hence the same deterministic
        ``candidates_until`` replay offsets)."""
        search = cls(network, spec, int(payload["source"]), stats=stats)
        n = search._flat[0]
        dist = [math.inf] * n
        path_sim = [0.0] * n
        settled = bytearray(n)
        touched: list[int] = []
        for v, d in payload["dist"]:
            v = int(v)
            dist[v] = float(d)
            touched.append(v)
        for v, s in payload["path_sim"]:
            path_sim[int(v)] = float(s)
        for v in payload["settled"]:
            # settled labels were dropped at checkpoint time; the
            # settled flag alone is what resumes consult
            v = int(v)
            settled[v] = 1
            touched.append(v)
        search._dist = dist
        search._path_sim = path_sim
        search._settled = settled
        search._touched = touched
        search._heap = [(float(d), int(v)) for d, v in payload["heap"]]
        heapq.heapify(search._heap)
        search.candidates = [
            (float(d), int(v), float(s)) for d, v, s in payload["candidates"]
        ]
        search.radius = float(payload["radius"])
        return search
