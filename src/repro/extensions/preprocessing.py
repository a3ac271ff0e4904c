"""Preprocessing for repeated SkySR queries (the paper's future work).

Section 9: "because we have not used any preprocessing techniques such
as indexing, we plan to propose a suitable preprocessing method for the
SkySR query."  This module implements the natural first step: a
**tree-pair minimum-distance index**.

Algorithm 4 spends one multi-source multi-destination Dijkstra per
consecutive query position to obtain the semantic-match minimum
distances ``l_s[i]``.  Those distances are minima between *tree*
candidate sets intersected with the ``l̄(ϕ)`` ball; dropping the ball
restriction yields a weaker but still valid lower bound that depends
only on the (tree, tree) pair — a quantity that can be computed once
per dataset and reused by every query.

:class:`TreePairDistanceIndex` precomputes exactly that.  With ``T``
populated trees the build runs ``T`` multi-source Dijkstras (not
``T²``: one expansion from each tree's PoI set against all other trees'
PoI sets simultaneously), after which any query obtains its ``l_s``
suffix bounds in O(|S_q|) dictionary lookups.

Trade-off: the indexed bounds are never tighter than Algorithm 4's
(no ball restriction), so BSSR prunes somewhat less; in exchange the
per-query bound computation cost disappears.  Both code paths are
exact; the test suite checks the index lower-bounds the online legs
and that BSSR results are unchanged.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter

from repro.core.bounds import LowerBounds, _remaining_best_np_from
from repro.core.spec import CompiledQuery
from repro.graph.poi import PoIIndex
from repro.graph.road_network import RoadNetwork


class TreePairDistanceIndex:
    """Minimum network distance between the PoI sets of tree pairs."""

    def __init__(self, network: RoadNetwork, index: PoIIndex) -> None:
        self._network = network
        self._forest = index.forest
        self.pairs: dict[tuple[int, int], float] = {}
        started = perf_counter()
        trees = index.trees_present()
        membership: dict[int, list[int]] = {}  # vid -> tree ids hosting it
        for tree in trees:
            for vid in index.pois_in_tree(tree):
                membership.setdefault(vid, []).append(tree)
        for tree in trees:
            self._expand_from(tree, index.pois_in_tree(tree), membership)
        #: seconds spent building (for the ablation report)
        self.build_time = perf_counter() - started

    def _expand_from(
        self,
        tree: int,
        sources: list[int],
        membership: dict[int, list[int]],
    ) -> None:
        """One multi-source Dijkstra from a tree's PoIs toward all trees.

        The first settled PoI of any other tree fixes that pair's
        minimum (Lemma 5.9 applies per target set); the search stops
        once every reachable tree has been seen.
        """
        if not sources:
            return
        remaining: set[int] = set()
        for trees in membership.values():
            remaining.update(trees)
        remaining.discard(tree)
        # No shared kernel fits: the sweep reads tree membership at each
        # settle and stops once every other tree is reached.
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for vid in sources:
            dist[vid] = 0.0
            heapq.heappush(heap, (0.0, vid))
        settled: set[int] = set()
        while heap and remaining:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            for other in membership.get(u, ()):
                if other in remaining:
                    remaining.discard(other)
                    self.pairs[self._key(tree, other)] = min(
                        d, self.pairs.get(self._key(tree, other), math.inf)
                    )
            for v, w in self._network.neighbors(u):
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))

    @staticmethod
    def _key(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def min_distance(self, tree_a: int, tree_b: int) -> float:
        """Lower bound on the distance between PoIs of the two trees."""
        if tree_a == tree_b:
            return 0.0
        return self.pairs.get(self._key(tree_a, tree_b), math.inf)

    # ------------------------------------------------------------------

    def bounds_for(self, query: CompiledQuery) -> LowerBounds:
        """Algorithm-4-shaped bounds from the index (no per-query work).

        Positions spanning several trees (OR-predicates) take the
        weakest pair — still a valid lower bound.  Perfect-match bounds
        (Lemma 5.8) need exact-category targets, which a tree-level
        index cannot provide, so ``suffix_lp`` falls back to the
        semantic legs.
        """
        n = query.size
        legs: list[float] = []
        for j in range(n - 1):
            left = query.specs[j].tree_ids
            right = query.specs[j + 1].tree_ids
            legs.append(
                min(
                    (
                        self.min_distance(a, b)
                        for a in left
                        for b in right
                    ),
                    default=0.0,
                )
            )
        bounds = LowerBounds(
            suffix_ls=[0.0] * (n + 1),
            suffix_lp=[0.0] * (n + 1),
            remaining_best_np=_remaining_best_np_from(
                [spec.best_nonperfect for spec in query.specs]
            ),
        )
        for k in range(n - 1, 0, -1):
            bounds.suffix_ls[k] = bounds.suffix_ls[k + 1] + legs[k - 1]
        bounds.suffix_ls[0] = bounds.suffix_ls[1]
        bounds.suffix_lp = list(bounds.suffix_ls)
        bounds.legs_ls = legs
        bounds.legs_lp = list(legs)
        return bounds
