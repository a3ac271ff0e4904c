"""NNinit — the initial search of Section 5.3.1 (Algorithm 3).

Branch-and-bound needs an upper bound before it can prune anything.
NNinit seeds the skyline set cheaply by chaining nearest-neighbor
searches: for each position it runs a Dijkstra from the previous PoI to
the nearest *perfect* match; on the final leg, every *semantic* match
settled before (and including) the perfect one yields a complete
sequenced route.  One of the seeds therefore has semantic score 0
(giving the ``l̄(ϕ)`` threshold of Algorithm 4) and the others trade
semantic score for length, tightening thresholds at higher semantic
levels — without any extra graph traversal.

Degenerate cases are handled conservatively: when a leg has no
reachable perfect match the chain stops early (the skyline simply
receives fewer or no seeds and BSSR proceeds unbounded, still exact);
PoIs already used by the chain are skipped (route distinctness,
Definition 3.4 iii).
"""

from __future__ import annotations

import heapq
import math

from repro.core.dominance import SkybandSet
from repro.core.routes import SkylineRoute
from repro.core.spec import CompiledQuery
from repro.core.stats import SearchStats
from repro.graph.contraction import ContractionHierarchy
from repro.graph.csr import flat_adjacency
from repro.graph.landmarks import LandmarkIndex
from repro.graph.road_network import RoadNetwork
from repro.semantics.scoring import SemanticAggregator


class _SweepCounters:
    """Settle/relax sink for CH sweeps (shape of ExpansionCounters)."""

    __slots__ = ("settled", "relaxed")

    def __init__(self) -> None:
        self.settled = 0
        self.relaxed = 0


def nninit(
    network: RoadNetwork,
    query: CompiledQuery,
    aggregator: SemanticAggregator,
    skyline: SkybandSet,
    stats: SearchStats | None = None,
    dest_dist: dict[int, float] | None = None,
    landmarks: LandmarkIndex | None = None,
    ch: ContractionHierarchy | None = None,
) -> list[SkylineRoute]:
    """Seed ``skyline`` with greedily found sequenced routes.

    Returns the routes *offered* to the skyline set (before dominance
    filtering) so callers can compute Table 7's length ratio.  When the
    query has a destination, ``dest_dist`` (distances *to* the
    destination) must be supplied so seeded lengths are total lengths.

    With ``landmarks``, the *non-last* legs run goal-directed A* toward
    the position's perfect set instead of plain Dijkstra.  This is sound
    because those legs only pick the chain's next PoI: the seed stays a
    real route of its exact length, and BSSR never depends on seed
    optimality — a (theoretically possible, ~1e-9-relative) suboptimal
    pick merely weakens the initial thresholds.  The *last* leg must
    stay distance-ordered: it emits one seed route per semantic match
    settled before the perfect one.

    With ``ch`` (``BSSROptions.use_contraction``), legs with a
    ``share_key`` replace graph traversal entirely: one forward upward
    sweep against the position's cached target bucket yields exact
    distances to every candidate.  Non-last legs pick the ``(d, vid)``-
    smallest unused perfect match — the vertex Dijkstra would settle
    first; the last leg replays the settle order by iterating candidates
    sorted by ``(d, vid)``, emitting the same seeds and stopping at the
    same perfect match.  Legs without a ``share_key`` (or without
    perfect matches) fall back per-leg to the scalar kernels.
    """
    n = query.size
    specs = query.specs
    found_routes: list[SkylineRoute] = []
    prefix_pois: list[int] = []
    prefix_sims: list[float] = []
    length = 0.0
    state = aggregator.initial(n)
    source = query.start
    num_v, indptr, indices, weights = flat_adjacency(network)

    for position, spec in enumerate(specs):
        is_last = position == n - 1
        used = set(prefix_pois)
        sim_of = spec.sim_map.get
        perfect = spec.perfect
        heap: list[tuple[float, int]] = [(0.0, source)]
        found: tuple[float, int] | None = None
        push = heapq.heappush
        pop = heapq.heappop
        settled_n = relaxed_n = 0
        if ch is not None and spec.share_key is not None and perfect:
            counters = _SweepCounters()
            if is_last:
                row = ch.memo_row(
                    "cands", spec.share_key, source, spec.sim_map, counters
                )
                for d, u in sorted((d, u) for u, d in row.items()):
                    if u in used:
                        continue
                    sim = sim_of(u)
                    if sim is None:
                        continue
                    total = length + d
                    if dest_dist is not None:
                        leg = dest_dist.get(u, math.inf)
                        total = length + d + leg
                    if total < math.inf:
                        end_state = aggregator.extend(state, sim)
                        route = SkylineRoute(
                            pois=tuple(prefix_pois) + (u,),
                            length=total,
                            semantic=aggregator.score(end_state),
                            sims=tuple(prefix_sims) + (sim,),
                        )
                        found_routes.append(route)
                        skyline.update(route)
                    if u in perfect:
                        found = (d, u)
                        break
            else:
                row = ch.memo_row(
                    "perfect", spec.share_key, source, perfect, counters
                )
                found = min(
                    ((d, u) for u, d in row.items() if u not in used),
                    default=None,
                )
            settled_n = counters.settled
            relaxed_n = counters.relaxed
        elif (
            landmarks is not None
            and not is_last
            and spec.share_key is not None
            and perfect
        ):
            # Goal-directed A* toward the perfect set.  The landmark
            # heuristic lower-bounds the distance to the *full* perfect
            # set, which contains the goal subset (perfect minus used) —
            # min over a superset is still admissible.  The eps shave
            # makes it very slightly inconsistent, so a settled vertex
            # may carry a ~1e-9-relatively suboptimal g; every g is the
            # length of a real path, which is all seeding needs.  The
            # heuristic is a memoized flat row (one list index per
            # relaxation), which is why this path needs a ``share_key``.
            dist_row = [math.inf] * num_v
            dist_row[source] = 0.0
            settled_row = bytearray(num_v)
            hrow = landmarks.heuristic_row(
                ("nninit-perfect", *spec.share_key), perfect
            )
            astar = [(hrow[source], 0.0, source)]
            while astar:
                _, d, u = pop(astar)
                if settled_row[u]:
                    continue
                settled_row[u] = 1
                settled_n += 1
                if u in perfect and u not in used:
                    found = (d, u)
                    break
                lo = indptr[u]
                hi = indptr[u + 1]
                relaxed_n += hi - lo
                for i in range(lo, hi):
                    v = indices[i]
                    nd = d + weights[i]
                    if nd < dist_row[v]:
                        dist_row[v] = nd
                        push(astar, (nd + hrow[v], nd, v))
        else:
            dist_row = [math.inf] * num_v
            dist_row[source] = 0.0
            settled_row = bytearray(num_v)
            while heap:
                d, u = pop(heap)
                if settled_row[u]:
                    continue
                settled_row[u] = 1
                settled_n += 1
                usable = u not in used
                if is_last and usable:
                    sim = sim_of(u)
                    if sim is not None:
                        total = length + d
                        if dest_dist is not None:
                            leg = dest_dist.get(u, math.inf)
                            total = length + d + leg
                        if total < math.inf:
                            end_state = aggregator.extend(state, sim)
                            route = SkylineRoute(
                                pois=tuple(prefix_pois) + (u,),
                                length=total,
                                semantic=aggregator.score(end_state),
                                sims=tuple(prefix_sims) + (sim,),
                            )
                            found_routes.append(route)
                            skyline.update(route)
                        if u in perfect:
                            found = (d, u)
                            break
                elif usable and u in perfect:
                    found = (d, u)
                    break
                lo = indptr[u]
                hi = indptr[u + 1]
                relaxed_n += hi - lo
                for i in range(lo, hi):
                    v = indices[i]
                    nd = d + weights[i]
                    if nd < dist_row[v]:
                        dist_row[v] = nd
                        push(heap, (nd, v))
        if stats is not None:
            stats.settled += settled_n
            stats.relaxed += relaxed_n
        if found is None:
            break  # no reachable perfect match: stop seeding, stay exact
        d, u = found
        length += d
        prefix_pois.append(u)
        prefix_sims.append(1.0)
        state = aggregator.extend(state, 1.0)
        source = u

    if stats is not None:
        stats.init_routes = len(found_routes)
        stats.init_length_ratio = _length_ratio(found_routes)
    return found_routes


def _length_ratio(routes: list[SkylineRoute]) -> float | None:
    """Table 7's "Ratio": length of the max-semantic seed over the
    length of the semantic-0 seed."""
    perfect = [r for r in routes if r.semantic <= 0.0]
    if not perfect or not routes:
        return None
    base = min(r.length for r in perfect)
    if base <= 0.0:
        return None
    worst = max(routes, key=lambda r: r.semantic)
    return worst.length / base
