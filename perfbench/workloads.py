"""The three benchmark workloads and their output checks.

Every workload drives the program through the entry points users call
(``SkySRService.plan`` or ``SessionApi.dispatch``) from one client in a
closed loop.  The query *set* of each workload is a fixed design drawn
with the repository's own generator (``generate_workload``) from
constant design seeds; the run's ``--seed`` draws the request stream
over that set (order, Zipf draws, session interleaving).  See
``perfbench/README.md`` for why.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.datasets.paper_example import Dataset
from repro.datasets.workloads import QuerySpec, generate_workload
from repro.service.api import SessionApi
from repro.service.prototype import SkySRService
from repro.store import InMemorySessionStore

#: design seed of the fixed warm-up request every cold start answers
WARMUP_SEED = 90_001

#: SearchStats fields copied per answered plan (deterministic counters)
SEARCH_COUNTERS = (
    "settled",
    "relaxed",
    "routes_enqueued",
    "routes_expanded",
    "routes_pruned_on_pop",
    "routes_pruned_on_insert",
)


@dataclass
class Op:
    """One request of the closed-loop stream."""

    index: int
    kind: str  # plan | create | page | get | delete
    key: int  # query or session index
    call: Callable[[], object]


@dataclass
class Outcome:
    """What the harness keeps of a reply (computed outside the timing)."""

    ok: bool
    answer: object = None
    counters: dict = field(default_factory=dict)
    error: str = ""


def _scores(routes) -> list[tuple[float, float]]:
    return sorted((round(r.length, 9), round(r.semantic, 9)) for r in routes)


def _distinct(queries: list[QuerySpec], exclude: set) -> list[QuerySpec]:
    seen = set(exclude)
    out = []
    for query in queries:
        key = (query.start, query.categories)
        if key not in seen:
            seen.add(key)
            out.append(query)
    return out


def _mixed(dataset: Dataset, count: int, design_seed: int) -> list[QuerySpec]:
    """``count`` queries alternating |Sq| = 3 and |Sq| = 4."""
    threes = generate_workload(dataset, 3, (count + 1) // 2, seed=design_seed)
    fours = generate_workload(dataset, 4, count // 2, seed=design_seed + 1)
    mixed = []
    for i in range(count):
        mixed.append(threes[i // 2] if i % 2 == 0 else fours[i // 2])
    return mixed


class Oracle:
    """Expected answers from a cache-free, freshly built ``SkySREngine``.

    Answers are kept in a JSON file named after a digest of the program
    source, so each expected answer is computed once per program
    version instead of once per run; every run still compares every
    answer it got.
    """

    def __init__(self, dataset: Dataset, path: Path) -> None:
        self.dataset = dataset
        self.path = path
        self.known: dict[str, list] = {}
        if path.is_file():
            self.known = json.loads(path.read_text())
        self._engine: SkySREngine | None = None
        self._dirty = False

    def answer(self, name: str, query: QuerySpec, k: int = 1) -> list:
        """Ranked ``[length, semantic]`` pairs of the fresh engine's answer."""
        if name not in self.known:
            if self._engine is None:
                self._engine = SkySREngine(self.dataset.network, self.dataset.forest)
            result = self._engine.query(
                query.start, list(query.categories), options=BSSROptions().but(k=k)
            )
            self.known[name] = [[r.length, r.semantic] for r in result.routes]
            self._dirty = True
        return self.known[name]

    def save(self) -> None:
        if self._dirty:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            partial = self.path.with_suffix(".partial")
            partial.write_text(json.dumps(self.known))
            partial.replace(self.path)


def warmup_query(dataset: Dataset) -> QuerySpec:
    return generate_workload(dataset, 3, 1, seed=WARMUP_SEED)[0]


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    scale = 1.0
    #: op kind whose latencies the percentiles cover
    latency_kind = "plan"

    def client(self, service: SkySRService):
        """What the ops call into (built inside the timed set-up)."""
        return service

    def design(self, dataset: Dataset, seed: int, seconds: float) -> None:
        """Draw the run's inputs; the program sees only these queries."""
        raise NotImplementedError

    def ops(self, client) -> list[Op]:
        raise NotImplementedError

    def prepare(self, client) -> None:
        """Untimed work after set-up and before the timed loop."""

    def digest(self, op: Op, reply) -> Outcome:
        raise NotImplementedError

    def check(self, oracle: Oracle, ops: list[Op], outcomes: list[Outcome]) -> dict[int, str]:
        """Failed op index -> reason, against a cache-free fresh engine."""
        raise NotImplementedError

    def counters(self, client) -> dict:
        """Deterministic program counters to snapshot around a pass."""
        service = client if isinstance(client, SkySRService) else client.service
        cache = service.engine.perf_stats().get("distance_cache", {})
        return {
            "cache_hits": cache.get("hits", 0),
            "cache_misses": cache.get("misses", 0),
            "cache_evictions": cache.get("evictions", 0),
            "cache_bytes": cache.get("bytes", 0),
            "bucket_misses": cache.get("bucket_misses", 0),
        }


class _PlanWorkload(Workload):
    """One-shot ``SkySRService.plan`` calls over a query pool."""

    def __init__(self) -> None:
        self.pool: list[QuerySpec] = []
        self.stream: list[int] = []

    def ops(self, client: SkySRService) -> list[Op]:
        ops = []
        for index, key in enumerate(self.stream):
            query = self.pool[key]

            def call(query=query):
                return client.plan(list(query.categories), start=query.start)

            ops.append(Op(index, "plan", key, call))
        return ops

    def digest(self, op: Op, reply) -> Outcome:
        stats = reply.result.stats
        return Outcome(
            ok=True,
            answer=_scores(reply.result.routes),
            counters={name: getattr(stats, name) for name in SEARCH_COUNTERS},
        )

    def check(self, oracle, ops, outcomes):
        failed = {}
        for op, outcome in zip(ops, outcomes):
            if not outcome.ok:
                continue
            query = self.pool[op.key]
            name = f"plan {query.start} {list(query.categories)}"
            expected = sorted((round(a, 9), round(b, 9)) for a, b in oracle.answer(name, query))
            if outcome.answer != expected:
                failed[op.index] = f"plan answer differs from a fresh engine for query {op.key}"
        return failed


class PlanCold(_PlanWorkload):
    """Distinct one-shot queries on a city too large for the cache."""

    name = "plan_cold"
    scale = 4.0
    queries_per_second = 10
    design_seed = 40_000

    def design(self, dataset, seed, seconds):
        count = max(1, round(seconds * self.queries_per_second))
        warm = warmup_query(dataset)
        pool = _mixed(dataset, count + 8, self.design_seed)
        self.pool = _distinct(pool, {(warm.start, warm.categories)})[:count]
        self.stream = list(range(len(self.pool)))
        random.Random(seed).shuffle(self.stream)


class PlanHot(_PlanWorkload):
    """Zipf-popular repeats of 8 |Sq| = 3 queries whose expansions fit
    the service's default cache (a mixed 3/4 pool of 8 at this scale
    overflows its 512 entries and thrashes the LRU to a 0% hit rate)."""

    name = "plan_hot"
    scale = 1.0
    requests_per_second = 85
    pool_size = 8
    zipf_s = 1.1
    design_seed = 10_000

    def design(self, dataset, seed, seconds):
        count = max(1, round(seconds * self.requests_per_second))
        warm = warmup_query(dataset)
        pool = generate_workload(dataset, 3, self.pool_size + 4, seed=self.design_seed)
        self.pool = _distinct(pool, {(warm.start, warm.categories)})[: self.pool_size]
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(len(self.pool))]
        self.stream = random.Random(seed).choices(
            range(len(self.pool)), weights=weights, k=count
        )

    def prepare(self, client: SkySRService) -> None:
        for query in self.pool:
            client.plan(list(query.categories), start=query.start)


class SessionsV1(Workload):
    """Paged ``/v1`` sessions over an in-memory store, served round-robin."""

    name = "sessions_v1"
    scale = 1.0
    latency_kind = "page"
    sessions_per_second = 2
    pages = 5
    page_size = 5
    open_sessions = 4
    design_seed = 20_000

    def __init__(self) -> None:
        self.pool: list[QuerySpec] = []
        self.order: list[int] = []
        self.seed = 0
        self.api: SessionApi | None = None

    def client(self, service: SkySRService) -> SessionApi:
        self.api = SessionApi(service, InMemorySessionStore())
        return self.api

    def design(self, dataset, seed, seconds):
        count = max(1, round(seconds * self.sessions_per_second))
        self.pool = _distinct(
            generate_workload(dataset, 3, count + 4, seed=self.design_seed), set()
        )[:count]
        self.order = list(range(len(self.pool)))
        random.Random(seed).shuffle(self.order)
        self.seed = seed

    def session_id(self, key: int) -> str:
        return f"bench-{self.seed}-{key}"

    def _request(self, api: SessionApi, kind: str, key: int) -> Callable[[], object]:
        sid = self.session_id(key)
        query = self.pool[key]
        if kind == "create":
            body = {
                "session_id": sid,
                "categories": list(query.categories),
                "start": query.start,
                "page_size": self.page_size,
            }
            return lambda: api.dispatch("POST", "/v1/sessions", body)
        if kind == "page":
            return lambda: api.dispatch("POST", f"/v1/sessions/{sid}/pages", {})
        if kind == "get":
            return lambda: api.dispatch("GET", f"/v1/sessions/{sid}")
        return lambda: api.dispatch("DELETE", f"/v1/sessions/{sid}")

    def ops(self, api: SessionApi) -> list[Op]:
        steps = ["create"] + ["page"] * self.pages + ["get", "delete"]
        pending = deque(self.order)
        active: list[list[int]] = []  # [session key, next step]
        ops: list[Op] = []
        while pending or active:
            while pending and len(active) < self.open_sessions:
                active.append([pending.popleft(), 0])
            still_open = []
            for entry in active:
                key, step = entry
                kind = steps[step]
                ops.append(Op(len(ops), kind, key, self._request(api, kind, key)))
                entry[1] += 1
                if entry[1] < len(steps):
                    still_open.append(entry)
            active = still_open
        return ops

    def digest(self, op: Op, reply) -> Outcome:
        if not reply.ok:
            return Outcome(ok=False, error=f"status {reply.status}: {reply.body}")
        body = reply.body
        if op.kind == "page":
            answer = [(card["distance"], 1.0 - card["semantic_fit"]) for card in body["routes"]]
        elif op.kind == "get":
            answer = (body["pages_served"], body["routes_served"])
        else:
            answer = reply.status
        store = self.api.store
        counters = {}
        if len(store):
            counters["store_bytes_per_session"] = store.total_bytes / len(store)
        return Outcome(ok=True, answer=answer, counters=counters)

    def counters(self, api: SessionApi) -> dict:
        counters = super().counters(api)
        stats = api.store.stats
        counters.update(
            store_hits=stats.hits,
            store_misses=stats.misses,
            store_writes=stats.writes,
            store_bytes=api.store.total_bytes,
        )
        return counters

    def check(self, oracle, ops, outcomes):
        failed = {}
        by_session: dict[int, list[tuple[Op, Outcome]]] = {}
        for op, outcome in zip(ops, outcomes):
            by_session.setdefault(op.key, []).append((op, outcome))
        for key, entries in by_session.items():
            if any(not outcome.ok for _, outcome in entries):
                continue  # already counted as failed by status
            served = [s for op, o in entries if op.kind == "page" for s in o.answer]
            query = self.pool[key]
            reason = ""
            statuses = {op.kind: o.answer for op, o in entries if op.kind in ("create", "delete")}
            described = [o.answer for op, o in entries if op.kind == "get"]
            if statuses != {"create": 201, "delete": 204}:
                reason = f"unexpected create/delete statuses {statuses}"
            elif described != [(self.pages, len(served))]:
                reason = f"GET reports {described}, served {self.pages} pages of {len(served)} routes"
            elif not served:
                reason = "session served no routes"
            else:
                name = f"top-{len(served)} {query.start} {list(query.categories)}"
                expected = oracle.answer(name, query, k=len(served))
                if len(expected) != len(served) or any(
                    abs(a[0] - b[0]) > 1e-9 or abs(a[1] - b[1]) > 1e-9
                    for a, b in zip(served, expected)
                ):
                    reason = f"session {key} pages differ from a fresh top-{len(served)} query"
            if reason:
                for op, _ in entries:
                    if op.kind == "page":
                        failed[op.index] = reason
        return failed


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (PlanCold, PlanHot, SessionsV1)
}
