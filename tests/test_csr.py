"""CSR kernels ≡ the dict-based test oracle.

The CSR kernels (:mod:`repro.graph.csr`, :mod:`repro.graph.dijkstra`)
promise more than "same distances": they relax edges in adjacency
order and break heap ties on ``(distance, vertex)``, exactly like the
textbook dict Dijkstra of :mod:`tests.oracle`.  So settle sequences,
predecessor trees, truncated minima and expansion counters all equal
what the oracle derives.  Integer-weight grids make ties common, which
is where a wrong tie-break would show.
"""

from __future__ import annotations

import inspect
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import PoICandidateSearch
from repro.graph.csr import csr_graph, flat_adjacency
from repro.graph.dijkstra import (
    ExpansionCounters,
    ResumableDijkstra,
    bounded_dijkstra,
    dijkstra,
    eccentricity,
    multi_source_min_distance,
    shortest_path,
)

from .conftest import integer_grid
from .oracle import oracle_dijkstra


def _expected_min(network, sources, targets, radius, *, reverse=False):
    """What :func:`multi_source_min_distance` must return, from the
    oracle: the exact minimum when it lies below ``radius``; otherwise
    ``radius`` if the search would reach that far, else ``inf``."""
    dist, _, _ = oracle_dijkstra(network, sources, reverse=reverse)
    exact = min((dist.get(t, math.inf) for t in targets), default=math.inf)
    if exact < radius:
        return exact
    return radius if max(dist.values()) >= radius else math.inf


def _work_until(network, order, target=None):
    """Settled/relaxed counts of a run over ``order`` that stops when
    ``target`` settles (the target's own edges are not relaxed)."""
    settled = relaxed = 0
    for _, u in order:
        settled += 1
        if u == target:
            break
        relaxed += len(network.neighbors(u))
    return settled, relaxed


# ----------------------------------------------------------------------
# function level


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_dijkstra_bit_identical(seed, directed):
    rng = random.Random(seed)
    net = integer_grid(4, 4, rng, directed=directed, extra_edges=4)
    source = rng.randrange(net.num_vertices)
    dist, pred, _ = oracle_dijkstra(net, source)
    assert dijkstra(net, source, with_predecessors=True) == (dist, pred)
    assert dijkstra(net, source) == dist
    if directed:
        rdist, rpred, _ = oracle_dijkstra(net, source, reverse=True)
        assert dijkstra(
            net, source, reverse=True, with_predecessors=True
        ) == (rdist, rpred)


@settings(deadline=None, max_examples=20)
@given(seed=st.integers(0, 10_000), directed=st.booleans())
def test_property_bounded_and_multi_source_identical(seed, directed):
    rng = random.Random(seed)
    net = integer_grid(4, 4, rng, directed=directed, extra_edges=3)
    source = rng.randrange(net.num_vertices)
    radius = float(rng.randint(1, 6))
    dist, _, _ = oracle_dijkstra(net, source)
    assert bounded_dijkstra(net, source, radius) == {
        v: d for v, d in dist.items() if d < radius
    }
    assert bounded_dijkstra(net, source, math.inf) == dist
    sources = rng.sample(range(net.num_vertices), 3)
    targets = rng.sample(range(net.num_vertices), 3)
    for reverse in (False, True):
        for r in (radius, math.inf):
            assert multi_source_min_distance(
                net, sources, targets, radius=r, reverse=reverse
            ) == _expected_min(net, sources, targets, r, reverse=reverse)
        # counters force the scalar kernel even where numpy would sweep
        assert multi_source_min_distance(
            net,
            sources,
            targets,
            reverse=reverse,
            counters=ExpansionCounters(),
        ) == _expected_min(net, sources, targets, math.inf, reverse=reverse)
    assert eccentricity(net, source) == max(dist.values())


def test_resumable_settle_sequence_identical():
    rng = random.Random(7)
    net = integer_grid(5, 5, rng, extra_edges=4)
    dist, _, order = oracle_dijkstra(net, 0)
    search = ResumableDijkstra(net, 0)
    settled = []
    while not search.exhausted:
        settled.append(search.settle_next())
    assert settled == order  # same vertices, same order, same distances
    assert search.settle_next() is None
    assert all(search.distance(v) == d for v, d in dist.items())


def test_shortest_path_identical_including_work():
    rng = random.Random(8)
    net = integer_grid(5, 5, rng, extra_edges=2)
    dist, pred, order = oracle_dijkstra(net, 0)
    path = [24]
    while path[-1] != 0:
        path.append(pred[path[-1]])
    path.reverse()
    counters = ExpansionCounters()
    assert shortest_path(net, 0, 24, counters=counters) == (dist[24], path)
    assert (counters.settled, counters.relaxed) == _work_until(
        net, order, target=24
    )


# ----------------------------------------------------------------------
# early termination + predecessor skip


def test_target_early_termination_settles_strictly_less():
    rng = random.Random(9)
    net = integer_grid(6, 6, rng, extra_edges=0)
    source, target = 0, 1  # adjacent: settles long before exhaustion
    exact, _, order = oracle_dijkstra(net, source)
    full = ExpansionCounters()
    dijkstra(net, source, counters=full)
    assert (full.settled, full.relaxed) == _work_until(net, order)
    early = ExpansionCounters()
    dist = dijkstra(net, source, target=target, counters=early)
    assert (early.settled, early.relaxed) == _work_until(
        net, order, target=target
    )
    assert early.settled < full.settled
    # the settled target's label is final
    assert dist[target] == exact[target]


def test_predecessor_skip_equivalence():
    rng = random.Random(10)
    net = integer_grid(4, 5, rng, extra_edges=3)
    bare = dijkstra(net, 0)
    dist, pred = dijkstra(net, 0, with_predecessors=True)
    assert bare == dist
    # every non-source predecessor edge closes the distance
    for v, u in pred.items():
        assert v != 0
        assert u in dist


def test_candidate_stream_is_a_generator_function():
    # consumers (and span recorders) rely on lazy, resumable streams
    assert inspect.isgeneratorfunction(PoICandidateSearch.candidates_until)
    assert inspect.isgeneratorfunction(PoICandidateSearch.scored_until)


# ----------------------------------------------------------------------
# the CSR view itself


def test_csr_view_memoized_and_invalidated():
    rng = random.Random(11)
    net = integer_grid(3, 3, rng, extra_edges=0)
    view = csr_graph(net)
    assert csr_graph(net) is view
    net.add_edge(0, 8, 2.0)
    rebuilt = csr_graph(net)
    assert rebuilt is not view
    assert rebuilt.num_edges == net.num_edges


def test_flat_adjacency_mirrors_neighbor_order():
    rng = random.Random(12)
    net = integer_grid(3, 3, rng, directed=True, extra_edges=3)
    for reverse, neighbors in (
        (False, net.neighbors),
        (True, net.in_neighbors),
    ):
        n, indptr, indices, weights = flat_adjacency(net, reverse=reverse)
        assert n == net.num_vertices
        assert len(indices) == len(weights) == indptr[-1]
        # edge order within a vertex is neighbors() order
        for u in range(n):
            mirror = list(
                zip(indices[indptr[u] : indptr[u + 1]],
                    weights[indptr[u] : indptr[u + 1]])
            )
            assert mirror == list(neighbors(u))
