"""In-memory span recorder wrapped around the program's public functions.

The recorder lives entirely in the benchmark: :func:`install` replaces
each traced function *where it is looked up* (a class attribute, or
every ``repro.*`` module global bound to a free function) with a
wrapper that records a span, and puts the originals back on exit.

A span records its name, layer, request id, parent span, first start,
last end and busy time.  Generator functions (the candidate streams)
are timed per resumption, so a span's busy time is the time spent
inside it, not the time its consumer held it open.  A layer's self
time is busy time minus the part its child spans cover; it is
accumulated per request as spans close.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

#: (owner, attribute, layer) of every traced method
_METHODS = (
    ("repro.core.search:PoICandidateSearch", "candidates_until", "core.search"),
    ("repro.core.search:PoICandidateSearch", "scored_until", "core.search"),
    ("repro.core.search:CHCandidateStream", "scored_until", "core.search"),
    ("repro.core.bssr:BSSRSearch", "run", "core.bssr"),
    ("repro.core.bssr:BSSRSearch", "resume", "core.bssr"),
    ("repro.core.dominance:SkybandSet", "update", "core.dominance"),
    ("repro.core.distcache:DistanceCache", "lookup", "core.distcache"),
    ("repro.core.distcache:DistanceCache", "admit", "core.distcache"),
    ("repro.core.session:PlanningSession", "next_page", "core.session"),
    ("repro.core.session:PlanningSession", "to_dict", "core.serialize.encode"),
    ("repro.core.session:PlanningSession", "from_dict", "core.serialize.decode"),
    ("repro.store.base:SessionStore", "put", "store.put"),
    ("repro.store.base:SessionStore", "get", "store.get"),
    ("repro.service.prototype:SkySRService", "plan", "service"),
    ("repro.service.api:SessionApi", "dispatch", "service"),
)

#: (defining module, function, layer) of every traced free function;
#: each is replaced in every ``repro`` module that imported it by name
_FUNCTIONS = (
    ("repro.core.nninit", "nninit", "core.nninit"),
    ("repro.core.bounds", "compute_lower_bounds", "core.bounds"),
    ("repro.graph.csr", "flat_adjacency", "graph.index"),
    ("repro.graph.landmarks", "landmarks_for", "graph.index"),
    ("repro.graph.contraction", "contraction_for", "graph.index"),
)


#: column order of a span record
SPAN_FIELDS = ("name", "layer", "request", "parent", "start_ns", "end_ns",
               "busy_ns", "self_ns", "id")


class Tracer:
    """Collects spans and per-request, per-layer self time."""

    def __init__(self) -> None:
        #: span records, fields as in SPAN_FIELDS
        self.spans: list[list] = []
        #: (request, layer) -> self ns
        self.self_ns: dict[tuple, int] = defaultdict(int)
        #: request id the next spans belong to (set by the harness)
        self.request: object = None
        #: name -> hook(args, result, token); token from a pre-hook
        self.after: dict[str, Callable] = {}
        self.before: dict[str, Callable] = {}
        self._stack: list[list] = []  # [span, t0, child_ns]

    # span bookkeeping --------------------------------------------------

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][0][8] if self._stack else -1
        span = [name, layer, self.request, parent, 0, 0, 0, 0, len(self.spans)]
        self.spans.append(span)
        return span

    def _enter(self, span: list) -> None:
        t0 = perf_counter_ns()
        if not span[4]:
            span[4] = t0
        self._stack.append([span, t0, 0])

    def _exit(self) -> None:
        now = perf_counter_ns()
        span, t0, child = self._stack.pop()
        dur = now - t0
        span[5] = now
        span[6] += dur
        own = dur - child
        span[7] += own
        self.self_ns[(self.request, span[1])] += own
        if self._stack:
            self._stack[-1][2] += dur

    # wrappers -----------------------------------------------------------

    def wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, layer, fn)
        tracer = self

        def traced(*args, **kwargs):
            before = tracer.before.get(name)
            token = before(args) if before is not None else None
            span = tracer._open(name, layer)
            tracer._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            after = tracer.after.get(name)
            if after is not None:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _wrap_generator(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            span = tracer._open(name, layer)
            try:
                while True:
                    tracer._enter(span)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    yield item
            finally:
                inner.close()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # output -------------------------------------------------------------

    def layer_ns(self, request: object, layer: str) -> int:
        return self.self_ns.get((request, layer), 0)

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip-compressed)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("\t".join(SPAN_FIELDS) + "\n")
            for span in self.spans:
                handle.write("\t".join(map(str, span)) + "\n")


def _resolve(target: str):
    module_name, _, attr = target.partition(":")
    __import__(module_name)
    module = sys.modules[module_name]
    return getattr(module, attr) if attr else module


@contextmanager
def install(tracer: Tracer):
    """Patch every traced function for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    try:
        for owner_name, attr, layer in _METHODS:
            owner = _resolve(owner_name)
            raw = owner.__dict__[attr]
            name = f"{owner.__name__}.{attr}"
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(name, layer, raw.__func__))
            else:
                patched = tracer.wrap(name, layer, raw)
            restore.append((owner, attr, raw))
            setattr(owner, attr, patched)
        for module_name, attr, layer in _FUNCTIONS:
            original = getattr(_resolve(module_name), attr)
            patched = tracer.wrap(attr, layer, original)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                if module.__dict__.get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, patched)
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
