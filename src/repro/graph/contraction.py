"""Contraction hierarchies: the preprocessing-based exact leg oracle.

Geisberger et al.'s contraction hierarchies (CH), in pure python over
the same :class:`~repro.graph.road_network.RoadNetwork` topology as the
Dijkstra kernels.  Preprocessing contracts vertices one by one in
*edge-difference* order (lazy-update priority queue): removing a vertex
``v`` inserts a shortcut ``u -> x`` of weight ``w(u,v) + w(v,x)`` for
every neighbor pair whose shortest ``u -> x`` path runs through ``v`` —
unless a *witness search* finds an equally short path avoiding ``v``.
Witness searches are settle-capped: a missed witness only adds a
redundant shortcut, never a wrong distance, so the cap trades
preprocessing time against shortcut count without touching correctness.

Queries then run bidirectional Dijkstra over the *upward* graphs only
(arcs from lower to higher contraction rank): every shortest path in
the original graph is covered by an up-then-down path over the
hierarchy, so scanning the tiny upward search spaces from both ends and
summing at the best meeting hub yields the exact distance.  Shortcuts
remember their middle vertex, so :meth:`ContractionHierarchy.path`
unpacks back to original-edge paths.

Beyond point-to-point, the pieces BSSR consumes directly:

* :meth:`~ContractionHierarchy.bucket` — per-target backward upward
  sweeps folded into a hub table (the many-to-many "bucket" trick).
  Buckets depend only on the target set, so
  :class:`~repro.core.distcache.DistanceCache` caches them across
  queries (warm queries skip every downward sweep);
* :meth:`~ContractionHierarchy.distances_from` — one forward upward
  sweep from a source scanned against a bucket: exact one-to-many
  distances (NNinit's legs);
* :meth:`~ContractionHierarchy.min_from_set` — a multi-source forward
  upward sweep against a bucket's per-hub minimum: the exact
  set-to-set minimum distance (the Section 5.3.3 leg bounds), in one
  sweep regardless of set sizes;
* :class:`CHDistanceOracle` — a lazy dict-like ``.get`` view of
  distances *to* one vertex, replacing the eager full reverse Dijkstra
  of destination queries.

Like the CSR view, the hierarchy is memoized per network
(:func:`contraction_for`); it is also globally toggleable
(:func:`set_ch_enabled`, env ``REPRO_DISABLE_CH=1``) so benchmarks and
CI can force the CH-free path deterministically.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING, Collection, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.road_network import RoadNetwork

_INF = math.inf

#: witness searches stop after this many settles; a missed witness only
#: costs one redundant shortcut (see module docstring)
WITNESS_SETTLE_CAP = 64

#: global backend switch, pre-seeded from the environment so CI can
#: prove the CH-free path without touching code
_ENABLED = not os.environ.get("REPRO_DISABLE_CH")


def set_ch_enabled(enabled: bool) -> bool:
    """Toggle CH usage globally; returns the previous setting.

    An existing hierarchy stays memoized; the toggle only gates
    whether searches consult it (``BSSROptions.use_contraction`` must
    also be set).
    ``REPRO_DISABLE_CH=1`` in the environment seeds this to ``False``.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


def ch_enabled() -> bool:
    return _ENABLED


@dataclass
class CHStats:
    """Preprocessing counters, surfaced through service/CLI stats."""

    vertices: int
    edges: int
    shortcuts_added: int
    preprocess_s: float

    def as_dict(self) -> dict:
        return {
            "vertices": self.vertices,
            "edges": self.edges,
            "shortcuts_added": self.shortcuts_added,
            "preprocess_ms": self.preprocess_s * 1e3,
        }


@dataclass
class CHBucket:
    """A target set folded into the hierarchy's hub space.

    ``pairs[h]`` lists ``(target, d(h, target))`` for every target whose
    backward upward sweep reached hub ``h``; ``hubmin[h]`` is the
    minimum of those distances (the set-to-set fast path).  A bucket
    depends only on the target set, never on a query.
    """

    pairs: dict[int, list[tuple[int, float]]]
    hubmin: dict[int, float]


class ContractionHierarchy:
    """Contracted view of one network; build via :func:`contraction_for`."""

    __slots__ = ("num_vertices", "directed", "_up_out", "_up_in",
                 "_middle", "stats", "_token", "_memo")

    def __init__(self, network: "RoadNetwork") -> None:
        started = perf_counter()
        n = network.num_vertices
        self.num_vertices = n
        self.directed = network.directed
        self._token = (n, network.num_edges)

        # Working adjacency as weight dicts (parallel edges collapse to
        # their minimum — distances are unaffected).  For undirected
        # networks the in- and out-dicts alias: the symmetric arc pair
        # is one dict entry per direction either way.
        out_adj: list[dict[int, float]] = [{} for _ in range(n)]
        if network.directed:
            in_adj: list[dict[int, float]] = [{} for _ in range(n)]
        else:
            in_adj = out_adj
        for u in range(n):
            row = out_adj[u]
            for v, w in network.neighbors(u):
                if w < row.get(v, _INF):
                    row[v] = w
        if network.directed:
            for u in range(n):
                row = in_adj[u]
                for v, w in network.in_neighbors(u):
                    if w < row.get(v, _INF):
                        row[v] = w

        #: per-hierarchy memo for buckets and leg minima keyed by
        #: ``share_key`` — both depend only on the network and the
        #: (query-independent) category sets, so they are preprocessing
        #: in disguise, exactly like landmark heuristic rows
        self._memo: dict = {}
        self._middle: dict[tuple[int, int], int] = {}
        #: upward adjacency, snapshotted at each vertex's contraction:
        #: every arc endpoint outlives (outranks) the vertex
        self._up_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        self._up_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]

        deleted = [0] * n  # contracted-neighbor count (uniformity term)
        shortcuts_added = 0

        def witness(source: int, excluded: int, limit: float) -> dict[int, float]:
            # Settle-capped Dijkstra avoiding ``excluded``.  Every label
            # (settled or not) is the length of a real path, hence a
            # valid witness when <= the shortcut weight.
            dist = {source: 0.0}
            settled: set[int] = set()
            heap = [(0.0, source)]
            cap = WITNESS_SETTLE_CAP
            while heap and cap:
                d, a = heappop(heap)
                if a in settled:
                    continue
                if d > limit:
                    break
                settled.add(a)
                cap -= 1
                for b, w in out_adj[a].items():
                    if b == excluded:
                        continue
                    nd = d + w
                    if nd <= limit and nd < dist.get(b, _INF):
                        dist[b] = nd
                        heappush(heap, (nd, b))
            return dist

        def needed_shortcuts(v: int) -> list[tuple[int, int, float]]:
            outs = out_adj[v]
            ins = in_adj[v]
            if not outs or not ins:
                return []
            max_out = max(outs.values())
            found: list[tuple[int, int, float]] = []
            for u, w1 in ins.items():
                reach = witness(u, v, w1 + max_out)
                for x, w2 in outs.items():
                    if x == u:
                        continue
                    through = w1 + w2
                    if reach.get(x, _INF) <= through:
                        continue  # witness path avoids v
                    if out_adj[u].get(x, _INF) <= through:
                        continue  # existing arc already as short
                    found.append((u, x, through))
            return found

        # Edge-difference ordering with lazy updates: recompute a popped
        # vertex's priority against the current graph; re-queue it when
        # a cheaper vertex has appeared since.  Ties contract the
        # smallest vertex id, keeping the order deterministic.
        pq: list[tuple[int, int]] = []
        for v in range(n):
            cand = needed_shortcuts(v)
            ed = len(cand) - (len(in_adj[v]) + len(out_adj[v]))
            heappush(pq, (ed, v))

        rank = [0] * n
        next_rank = 0
        while pq:
            _, v = heappop(pq)
            cand = needed_shortcuts(v)
            priority = (
                len(cand)
                - (len(in_adj[v]) + len(out_adj[v]))
                + deleted[v]
            )
            if pq and priority > pq[0][0]:
                heappush(pq, (priority, v))
                continue
            for u, x, w in cand:
                out_adj[u][x] = w
                in_adj[x][u] = w
                self._middle[(u, x)] = v
                shortcuts_added += 1
            # Snapshot v's arcs (all endpoints outrank v) sorted for a
            # deterministic sweep order, then remove v from the graph.
            self._up_out[v] = sorted(out_adj[v].items())
            self._up_in[v] = sorted(in_adj[v].items())
            for u in list(in_adj[v]):
                out_adj[u].pop(v, None)
                deleted[u] += 1
            if network.directed:
                for x in out_adj[v]:
                    in_adj[x].pop(v, None)
                    deleted[x] += 1
            out_adj[v] = {}
            if network.directed:
                in_adj[v] = {}
            else:
                in_adj[v] = out_adj[v]
            rank[v] = next_rank
            next_rank += 1

        self.stats = CHStats(
            vertices=n,
            edges=network.num_edges,
            shortcuts_added=shortcuts_added,
            preprocess_s=perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # upward sweeps

    def _sweep(
        self,
        sources: Iterable[tuple[int, float]],
        adj: list[list[tuple[int, float]]],
        counters=None,
    ) -> dict[int, float]:
        """Full Dijkstra over an upward graph; returns settled labels.

        Upward search spaces are tiny (arcs only climb ranks), so the
        sweep always runs to exhaustion — that is what makes its result
        reusable as a bucket or a one-to-many row.
        """
        dist: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        for s, d0 in sources:
            if d0 < dist.get(s, _INF):
                dist[s] = d0
                heappush(heap, (d0, s))
        out: dict[int, float] = {}
        relaxed = 0
        while heap:
            d, u = heappop(heap)
            if u in out:
                continue
            out[u] = d
            arcs = adj[u]
            relaxed += len(arcs)
            for v, w in arcs:
                nd = d + w
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heappush(heap, (nd, v))
        if counters is not None:
            counters.settled += len(out)
            counters.relaxed += relaxed
        return out

    # ------------------------------------------------------------------
    # queries

    def distance(self, source: int, target: int) -> float:
        """Exact shortest-path distance (inf when unreachable)."""
        fwd = self._sweep([(source, 0.0)], self._up_out)
        bwd = self._sweep([(target, 0.0)], self._up_in)
        best = _INF
        if len(bwd) < len(fwd):
            small, large = bwd, fwd
        else:
            small, large = fwd, bwd
        for h, d in small.items():
            other = large.get(h)
            if other is not None:
                total = d + other
                if total < best:
                    best = total
        return best

    def path(self, source: int, target: int) -> tuple[float, list[int]]:
        """Exact distance plus an unpacked original-edge vertex path."""
        fwd, fpred = self._sweep_pred([(source, 0.0)], self._up_out)
        bwd, bpred = self._sweep_pred([(target, 0.0)], self._up_in)
        best = _INF
        hub = -1
        for h, d in fwd.items():
            other = bwd.get(h)
            if other is not None and d + other < best:
                best = d + other
                hub = h
        if hub < 0:
            return _INF, []
        up: list[int] = [hub]
        while up[-1] != source and fpred.get(up[-1], -1) >= 0:
            up.append(fpred[up[-1]])
        up.reverse()
        down: list[int] = [hub]
        while down[-1] != target and bpred.get(down[-1], -1) >= 0:
            down.append(bpred[down[-1]])
        # Backward-sweep predecessors already point *along* the route
        # (pred[v] = u means arc v -> u lies on v's path to the target),
        # so both chains read in forward arc orientation.
        arcs = list(zip(up, up[1:]))
        arcs += list(zip(down, down[1:]))
        path = [source]
        for a, b in arcs:
            path.extend(self._unpack(a, b))
        return best, path

    def _sweep_pred(self, sources, adj):
        dist: dict[int, float] = {}
        pred: dict[int, int] = {}
        heap: list[tuple[float, int]] = []
        for s, d0 in sources:
            dist[s] = d0
            pred[s] = -1
            heappush(heap, (d0, s))
        out: dict[int, float] = {}
        while heap:
            d, u = heappop(heap)
            if u in out:
                continue
            out[u] = d
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    pred[v] = u
                    heappush(heap, (nd, v))
        return out, pred

    def _unpack(self, a: int, b: int) -> list[int]:
        """Vertices after ``a`` along arc ``a -> b`` in original edges."""
        mid = self._middle.get((a, b))
        if mid is None:
            return [b]
        return self._unpack(a, mid) + self._unpack(mid, b)

    # ------------------------------------------------------------------
    # many-to-many machinery

    def bucket(self, targets: Collection[int], counters=None) -> CHBucket:
        """Fold a target set into its hub table (one backward upward
        sweep per target; cacheable — depends only on the set)."""
        pairs: dict[int, list[tuple[int, float]]] = {}
        hubmin: dict[int, float] = {}
        for t in targets:
            row = self._sweep([(t, 0.0)], self._up_in, counters)
            for h, d in row.items():
                entry = pairs.get(h)
                if entry is None:
                    pairs[h] = [(t, d)]
                    hubmin[h] = d
                else:
                    entry.append((t, d))
                    if d < hubmin[h]:
                        hubmin[h] = d
        return CHBucket(pairs=pairs, hubmin=hubmin)

    def forward_row(self, u: int) -> dict[int, float]:
        """``u``'s forward hub labels: ``{hub: d(u, hub)}``, memoized.

        One upward sweep on first use, a dict lookup after — the lazy
        hub-labeling view of the hierarchy.  Every one-to-many consumer
        (:meth:`distances_from`, :class:`CHDistanceOracle`,
        :meth:`vertex_min`) reads through this, so repeated queries
        touching the same vertices degrade to pure label scans.
        """
        key = ("fwd", u)
        row = self._memo.get(key)
        if row is None:
            row = self._sweep([(u, 0.0)], self._up_out)
            self._memo[key] = row
        return row

    def distances_from(
        self, source: int, bucket: CHBucket, counters=None
    ) -> dict[int, float]:
        """Exact distances from ``source`` to every bucket target
        (missing key == unreachable) via one forward upward sweep."""
        key = ("fwd", source)
        fwd = self._memo.get(key)
        if fwd is None:
            fwd = self._sweep([(source, 0.0)], self._up_out, counters)
            self._memo[key] = fwd
        pairs = bucket.pairs
        best: dict[int, float] = {}
        for h, g in fwd.items():
            for t, d in pairs.get(h, ()):
                total = g + d
                if total < best.get(t, _INF):
                    best[t] = total
        return best

    def min_from_set(
        self, sources: Collection[int], bucket: CHBucket, counters=None
    ) -> float:
        """Exact ``min_{s in sources, t in targets} d(s, t)`` in one
        multi-source forward upward sweep against the hub minima."""
        if not sources:
            return _INF
        fwd = self._sweep(
            [(s, 0.0) for s in sources], self._up_out, counters
        )
        hubmin = bucket.hubmin
        best = _INF
        for h, g in fwd.items():
            d = hubmin.get(h)
            if d is not None and g + d < best:
                best = g + d
        return best

    @staticmethod
    def _row_min(row: dict[int, float], hubmin: dict[int, float]) -> float:
        """``min_h row[h] + hubmin[h]`` over the smaller of the dicts."""
        best = _INF
        if len(hubmin) < len(row):
            row, hubmin = hubmin, row
        get = hubmin.get
        for h, g in row.items():
            d = get(h)
            if d is not None and g + d < best:
                best = g + d
        return best

    def vertex_min(
        self,
        kind: str,
        share_key: tuple,
        u: int,
        targets: Collection[int],
    ) -> float:
        """Exact ``min_t d(u, t)`` over a share-keyed target set, memoized.

        The per-route next-leg floor of BSSR's pruning test: from the
        concrete last vertex of a partial route to the next position's
        full candidate set.  Both the target bucket and the resulting
        scalar are per-network constants, so after the first probe of a
        ``(u, share_key)`` pair the floor costs one dict lookup.
        """
        memo = self._memo
        key = ("vmin", kind, share_key, u)
        value = memo.get(key)
        if value is None:
            bucket_key = ("bucket", kind, share_key)
            bucket = memo.get(bucket_key)
            if bucket is None:
                bucket = self.bucket(targets)
                memo[bucket_key] = bucket
            value = self._row_min(self.forward_row(u), bucket.hubmin)
            memo[key] = value
        return value

    def memo_row(
        self,
        kind: str,
        share_key: tuple,
        source: int,
        targets: Collection[int],
        counters=None,
    ) -> dict[int, float]:
        """:meth:`distances_from` against a share-keyed target set,
        memoized per ``(source, share_key)``.

        The exact one-to-many row from a vertex to a category's full
        candidate set is a per-network constant — NNinit legs and
        final-position candidate streams re-request the same rows every
        query, so after the first build they are dict lookups.
        ``counters`` only ticks when the row (or its bucket) is actually
        swept — memo hits report zero work, which is the point.
        """
        memo = self._memo
        key = ("drow", kind, share_key, source)
        row = memo.get(key)
        if row is None:
            bucket_key = ("bucket", kind, share_key)
            bucket = memo.get(bucket_key)
            if bucket is None:
                bucket = self.bucket(targets, counters)
                memo[bucket_key] = bucket
            row = self.distances_from(source, bucket, counters)
            memo[key] = row
        return row

    def memo_stream(
        self,
        share_key: tuple,
        source: int,
        sim_map: dict[int, float],
        counters=None,
    ) -> list[tuple[float, int, float]]:
        """The sorted ``(d, vid, sim)`` candidate stream from ``source``
        to a share-keyed candidate set, memoized.

        Equal ``share_key`` implies equal ``sim_map`` (see
        ``PositionSpec.share_key``), so the stream — row *and* sims and
        their sort order — is a per-network constant.  Final-position
        expansions re-read it every query; after the first build it is
        one dict lookup per search.
        """
        memo = self._memo
        key = ("stream", share_key, source)
        entries = memo.get(key)
        if entries is None:
            row = self.memo_row("cands", share_key, source, sim_map, counters)
            sim_of = sim_map.__getitem__
            entries = sorted(
                (d, vid, sim_of(vid)) for vid, d in row.items()
            )
            memo[key] = entries
        return entries

    def memo_min(
        self, key: tuple, sources: Collection[int], bucket: CHBucket
    ) -> float:
        """:meth:`min_from_set`, memoized on the hierarchy under ``key``.

        For set-to-set leg minima whose sources *and* targets are both
        named query-independently (full category candidate sets): the
        value is a per-network constant, so computing it per query is
        pure waste.  Callers must fold the share keys of both sets into
        ``key``.
        """
        value = self._memo.get(key)
        if value is None:
            value = self.min_from_set(sources, bucket)
            self._memo[key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "directed" if self.directed else "undirected"
        return (
            f"ContractionHierarchy({kind}, |V∪P|={self.num_vertices}, "
            f"shortcuts={self.stats.shortcuts_added})"
        )


class CHDistanceOracle:
    """Lazy dict-like view of exact distances *to* one target vertex.

    Drop-in for the eager ``dijkstra(network, destination,
    reverse=True)`` dict of destination queries — consumers only call
    ``.get(vid, default)``.  Each first lookup costs one forward upward
    sweep (memoized), so queries touching few vertices skip almost the
    entire reverse search.
    """

    __slots__ = ("_ch", "_bucket", "_memo")

    def __init__(
        self, ch: ContractionHierarchy, target: int, bucket: CHBucket | None = None
    ) -> None:
        self._ch = ch
        self._bucket = bucket if bucket is not None else ch.bucket((target,))
        self._memo: dict[int, float] = {}

    @property
    def bucket(self) -> CHBucket:
        return self._bucket

    def get(self, vid: int, default=None):
        d = self._memo.get(vid)
        if d is None:
            d = self._ch._row_min(
                self._ch.forward_row(vid), self._bucket.hubmin
            )
            self._memo[vid] = d
        return default if d == _INF else d


def shared_bucket(
    ch: ContractionHierarchy,
    network: "RoadNetwork",
    cache,
    kind: str,
    share_key: tuple | None,
    targets: Collection[int],
) -> CHBucket:
    """A target bucket, through the cross-query cache when possible.

    ``cache`` is a :class:`~repro.core.distcache.DistanceCache` (or
    ``None``); ``share_key`` names the target set query-independently —
    without one the bucket is built fresh (exactly like unshareable
    modified-Dijkstra searches).  With a cache the bucket lives there
    (budgeted, evictable, hit/miss counted); without one it is memoized
    on the hierarchy itself, because a shareable bucket is a per-network
    constant and rebuilding it per query would make "cold" CH queries
    pay the downward sweeps forever.  The hierarchy token in the cache
    key guards against a rebuilt-after-mutation hierarchy reading stale
    buckets (the hierarchy memo dies with the hierarchy, so it needs no
    token).
    """
    if share_key is None:
        return ch.bucket(targets)
    if cache is not None:
        key = ("chb", ch._token, kind, share_key)
        hit = cache.lookup_bucket(network, key)
        if hit is not None:
            return hit
        bucket = ch.bucket(targets)
        cache.admit_bucket(network, key, bucket)
        return bucket
    memo_key = ("bucket", kind, share_key)
    bucket = ch._memo.get(memo_key)
    if bucket is None:
        bucket = ch.bucket(targets)
        ch._memo[memo_key] = bucket
    return bucket


def contraction_for(network: "RoadNetwork") -> ContractionHierarchy:
    """The (memoized) contraction hierarchy of ``network``.

    Rebuilt when the network gained vertices or edges, mirroring
    :func:`repro.graph.csr.csr_graph`; independent of
    :func:`set_ch_enabled` so callers can inspect stats either way.
    """
    cached: ContractionHierarchy | None = getattr(network, "_ch_index", None)
    token = (network.num_vertices, network.num_edges)
    if cached is not None and cached._token == token:
        return cached
    index = ContractionHierarchy(network)
    network._ch_index = index  # type: ignore[attr-defined]
    return index
