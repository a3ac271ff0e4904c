"""Versioned (de)serialization of checkpointed searches and sessions.

PR 2 made the BSSR search loop an explicit, checkpointable
:class:`~repro.core.bssr.SearchState`; this module makes that state
*durable*.  A :class:`~repro.core.session.PlanningSession` — compiled
query, served pages, and the full search checkpoint (skyband archive,
deferred work, priority queue, lower bounds, modified-Dijkstra caches)
— round-trips through plain JSON-compatible dicts, so a session can be
persisted by a :mod:`repro.store` backend, restored in a *different
process*, and resumed as if nothing happened.

Layout (schema version 2).  The small parts — query, options, pages,
served routes, bounds — are ordinary JSON fields.  The bulky parts are
packed binary columns (:mod:`repro.core.columns`): base64 text of
fixed-width little-endian arrays, int32 for vertex ids and lengths,
int64 for serials and stream offsets, float64 for distances and
scores.

* each route list (``archive``, ``skyband``, ``deferred``, ``queue``)
  is one column block: per-route ``pois``/``sims`` lengths, the flat
  ``pois`` and ``sims``, ``length`` and ``semantic``, and for partial
  routes ``serial`` and ``consumed`` (plus the queue's own
  ``queue_serial``);
* each cached candidate search writes its live vertices with their
  labels, its settled flags (zlib-compressed) and its candidate stream
  as three columns — see :meth:`PoICandidateSearch.to_dict
  <repro.core.search.PoICandidateSearch.to_dict>`.

Exactness is the contract, and the test layer
(``tests/test_session_store.py``) holds it to byte-identical output:

* floats are their IEEE-754 bytes, so they survive bit for bit
  (``inf`` included) — no decimal round trip;
* a cached search's heap is not shipped but derived from its live
  labels, which pops the same sequence (the shipped heap's other
  entries were stale);
* a partial route's incremental aggregator state is *rebuilt* by
  replaying its similarity vector through the aggregator — the same
  ``extend`` sequence BSSR originally executed, hence bit-identical;
* queue priorities are recomputed from the configured policy and the
  unique serial tiebreak, so the restored heap pops in the original
  order;
* the skyband is restored member-for-member (not re-derived), so even
  equal-score representatives are preserved.

Decoding is strict: every payload carries ``format`` and ``version``
fields, and :func:`session_from_dict` rejects unknown versions and
malformed fields — bad base64, truncated columns, columns of
mismatched length, lengths that do not add up, vertex ids outside the
network — with a typed :class:`~repro.errors.SessionDecodeError`
naming the offending field, never a bare ``KeyError``/``TypeError``.
A payload written by a newer schema is refused instead of half-read.
Version 1 payloads (JSON lists throughout) are upgraded on read by
:func:`upgrade_v1`, a pure dict-to-dict function, then decoded by the
one version-2 path.

What is deliberately *not* serialized:

* the road network / category forest — a payload is restored *against*
  an engine serving the same dataset (the caller owns dataset
  provenance; the CLI wrapper records preset/scale/seed);
* reverse distances to a destination (``dest_dist``) — recomputed on
  restore by the same deterministic Dijkstra, keeping payloads lean.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Callable

from repro.core.bounds import LowerBounds
from repro.core.columns import (
    FLOAT64,
    INT32,
    INT64,
    check_ids,
    check_lengths,
    pack,
    pack_flags,
    unpack_column,
)
from repro.core.options import BSSROptions
from repro.core.routes import PartialRoute, SkylineRoute
from repro.core.search import PoICandidateSearch
from repro.core.stats import SearchStats
from repro.errors import (
    QueryError,
    SessionDecodeError,
    SessionEncodeError,
)
from repro.graph.contraction import ch_enabled
from repro.semantics.scoring import SemanticAggregator

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.core.bssr import BSSRSearch
    from repro.core.engine import SkySREngine
    from repro.core.session import PlanningSession
    from repro.core.spec import CompiledQuery
    from repro.graph.road_network import RoadNetwork

#: payload self-identification (the ``format`` field)
SESSION_FORMAT = "repro-skysr-session"

#: current schema version; bump on any incompatible payload change
SCHEMA_VERSION = 2

_MISSING = object()


# ---------------------------------------------------------------------------
# strict field access


def _require(payload: dict, field: str, kinds, *, where: str = "payload"):
    """Fetch ``payload[field]`` with presence and type validation.

    ``kinds`` is a type or tuple of types; ``bool`` is only accepted
    when explicitly listed (it is an ``int`` subclass, and a ``true``
    where a count belongs is corruption, not a number).
    """
    if not isinstance(payload, dict):
        raise SessionDecodeError(
            f"{where} must be a JSON object, got {type(payload).__name__}",
            field=where,
        )
    value = payload.get(field, _MISSING)
    if value is _MISSING:
        raise SessionDecodeError(
            f"{where} is missing required field {field!r}", field=field
        )
    if kinds is not None:
        if not isinstance(value, kinds):
            raise SessionDecodeError(
                f"field {field!r} must be "
                f"{getattr(kinds, '__name__', kinds)}, got "
                f"{type(value).__name__}",
                field=field,
            )
        kind_tuple = kinds if isinstance(kinds, tuple) else (kinds,)
        if isinstance(value, bool) and bool not in kind_tuple:
            raise SessionDecodeError(
                f"field {field!r} must not be a boolean", field=field
            )
    return value


def _decoding(field: str, rebuild: Callable):
    """Run ``rebuild()``, converting stray errors into a typed
    :class:`SessionDecodeError` naming the enclosing field."""
    try:
        return rebuild()
    except SessionDecodeError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, QueryError) as exc:
        raise SessionDecodeError(
            f"field {field!r} is malformed: {exc}", field=field
        ) from exc


# ---------------------------------------------------------------------------
# routes


def route_to_dict(route: SkylineRoute) -> dict:
    """JSON-compatible form of a finished route."""
    return {
        "pois": list(route.pois),
        "length": route.length,
        "semantic": route.semantic,
        "sims": list(route.sims),
    }


def route_from_dict(payload: dict, *, where: str = "route") -> SkylineRoute:
    """Inverse of :func:`route_to_dict` (strict)."""
    return _decoding(
        where,
        lambda: SkylineRoute(
            pois=tuple(int(p) for p in payload["pois"]),
            length=float(payload["length"]),
            semantic=float(payload["semantic"]),
            sims=tuple(float(s) for s in payload["sims"]),
        ),
    )


def _replay_sem_state(
    aggregator: SemanticAggregator, n: int, sims: tuple[float, ...]
):
    state = aggregator.initial(n)
    for sim in sims:
        state = aggregator.extend(state, sim)
    return state


# ---------------------------------------------------------------------------
# lower bounds


def bounds_to_dict(bounds: LowerBounds | None) -> dict | None:
    """JSON form of the Section 5.3.3 bounds (``None`` passes through).

    Infinite leg distances (no qualifying target) survive via Python's
    JSON ``Infinity`` extension — payloads are read back by this module,
    which accepts it.
    """
    if bounds is None:
        return None
    return {
        "suffix_ls": list(bounds.suffix_ls),
        "suffix_lp": list(bounds.suffix_lp),
        "remaining_best_np": list(bounds.remaining_best_np),
        "dest_min": bounds.dest_min,
        "legs_ls": list(bounds.legs_ls),
        "legs_lp": list(bounds.legs_lp),
    }


def bounds_from_dict(payload: dict | None) -> LowerBounds | None:
    """Inverse of :func:`bounds_to_dict`."""
    if payload is None:
        return None

    def rebuild() -> LowerBounds:
        return LowerBounds(
            suffix_ls=[float(x) for x in payload["suffix_ls"]],
            suffix_lp=[float(x) for x in payload["suffix_lp"]],
            remaining_best_np=[
                None if x is None else float(x)
                for x in payload["remaining_best_np"]
            ],
            dest_min=float(payload["dest_min"]),
            legs_ls=[float(x) for x in payload["legs_ls"]],
            legs_lp=[float(x) for x in payload["legs_lp"]],
        )

    return _decoding("search.state.bounds", rebuild)


# ---------------------------------------------------------------------------
# route lists as column blocks


def _routes_block(
    pois: list, sims: list, lengths: list, semantics: list, **int64_columns
) -> dict:
    """One column block for a list of routes given field by field.

    Per-route ``pois``/``sims`` lengths locate each route inside the
    flat ``pois``/``sims`` columns; ``int64_columns`` (serials and
    stream offsets of partial routes) ride along one value per route.
    """
    block = {
        "pois_len": pack(INT32, [len(p) for p in pois]),
        "sims_len": pack(INT32, [len(s) for s in sims]),
        "pois": pack(INT32, [p for seq in pois for p in seq]),
        "sims": pack(FLOAT64, [x for seq in sims for x in seq]),
        "length": pack(FLOAT64, lengths),
        "semantic": pack(FLOAT64, semantics),
    }
    for name, values in int64_columns.items():
        block[name] = pack(INT64, values)
    return block


def _encode_routes(routes, **int64_columns) -> dict:
    routes = list(routes)
    return _routes_block(
        [r.pois for r in routes],
        [r.sims for r in routes],
        [r.length for r in routes],
        [r.semantic for r in routes],
        **int64_columns,
    )


def _encode_partials(routes: list, consumed: list, **int64_columns) -> dict:
    return _encode_routes(
        routes,
        serial=[r.serial for r in routes],
        consumed=consumed,
        **int64_columns,
    )


def _decode_block(
    state_payload: dict, name: str, num_vertices: int, int64_names=()
) -> tuple[list, list, dict]:
    """Unpack and validate one route block of ``search.state``.

    Returns the per-route ``pois`` and ``sims`` tuples and the
    per-route scalar columns by name.  Mismatched column lengths,
    lengths that do not add up and vertex ids outside the network
    raise :class:`SessionDecodeError` naming
    ``search.state.<name>.<column>``.
    """
    block = _require(state_payload, name, dict, where="search.state")
    where = f"search.state.{name}"
    per_route = {
        key: unpack_column(block, key, typecode, where=where)
        for key, typecode in (
            ("pois_len", INT32),
            ("sims_len", INT32),
            ("length", FLOAT64),
            ("semantic", FLOAT64),
            *((key, INT64) for key in int64_names),
        )
    }
    check_lengths(per_route, where=where)
    pois = unpack_column(block, "pois", INT32, where=where).tolist()
    sims = unpack_column(block, "sims", FLOAT64, where=where).tolist()
    check_ids(pois, num_vertices, field=f"{where}.pois")
    out_pois, out_sims = [], []
    for key, flat, out in (
        ("pois_len", pois, out_pois),
        ("sims_len", sims, out_sims),
    ):
        counts = per_route[key]
        if (counts and min(counts) < 0) or sum(counts) != len(flat):
            raise SessionDecodeError(
                f"{where}.{key} does not add up to the "
                f"{len(flat)} items of its flat column",
                field=f"{where}.{key}",
            )
        at = 0
        for count in counts:
            out.append(tuple(flat[at : at + count]))
            at += count
    return out_pois, out_sims, {key: col.tolist() for key, col in per_route.items()}


def _decode_routes(
    state_payload: dict, name: str, num_vertices: int
) -> list[SkylineRoute]:
    pois, sims, cols = _decode_block(state_payload, name, num_vertices)
    return [
        SkylineRoute(pois=p, length=length, semantic=semantic, sims=s)
        for p, s, length, semantic in zip(
            pois, sims, cols["length"], cols["semantic"]
        )
    ]


def _decode_partials(
    state_payload: dict,
    name: str,
    num_vertices: int,
    aggregator: SemanticAggregator,
    n: int,
    int64_names=(),
) -> tuple[list[PartialRoute], dict]:
    pois, sims, cols = _decode_block(
        state_payload,
        name,
        num_vertices,
        ("serial", "consumed", *int64_names),
    )
    routes = [
        PartialRoute(
            pois=p,
            length=length,
            semantic=semantic,
            sem_state=_replay_sem_state(aggregator, n, s),
            sims=s,
            serial=serial,
        )
        for p, s, length, semantic, serial in zip(
            pois, sims, cols["length"], cols["semantic"], cols["serial"]
        )
    ]
    return routes, cols


# ---------------------------------------------------------------------------
# the checkpointed search


def search_to_dict(search: "BSSRSearch") -> dict:
    """Serialize a checkpointable :class:`~repro.core.bssr.BSSRSearch`."""
    if not search.checkpointable:
        raise SessionEncodeError(
            "one-shot searches (checkpointable=False) carry no resumable "
            "state and cannot be serialized"
        )
    state = search.state
    return {
        "options": search.options.to_dict(),
        "started": search._started,
        "first_radius_recorded": search._first_radius_recorded,
        "state": {
            "k": state.k,
            "serial": state.serial,
            "resumes": state.resumes,
            "archive": _encode_routes(state.archive.values()),
            "skyband": _encode_routes(state.skyband.routes()),
            "deferred": _encode_partials(
                [d.route for d in state.deferred],
                [d.consumed for d in state.deferred],
            ),
            "queue": _encode_partials(
                [entry[2] for entry in state.queue],
                [entry[3] for entry in state.queue],
                queue_serial=[entry[1] for entry in state.queue],
            ),
            "bounds": bounds_to_dict(state.bounds),
            "cache": [
                {"source": source, "position": position, "search": cs.to_dict()}
                for (source, position), cs in state.cache.items()
            ],
        },
    }


def search_from_dict(
    network: "RoadNetwork",
    query: "CompiledQuery",
    aggregator: SemanticAggregator,
    payload: dict,
) -> "BSSRSearch":
    """Rebuild a resumable search against ``(network, query)``.

    The restored object is behaviourally identical to the original at
    its last checkpoint: same skyband members, same deferred work and
    queue pop order, same bounds, same warm Dijkstra caches.
    """
    import heapq

    from repro.core.bssr import BSSRSearch, _ArchivingSkyband, _Deferred

    options = _decoding(
        "search.options",
        lambda: BSSROptions.from_dict(
            _require(payload, "options", dict, where="search")
        ),
    )
    if options.use_contraction and not ch_enabled():
        # CH candidate streams order (and superset) the final position's
        # stream differently from the modified Dijkstra; consumed
        # offsets in the payload address that stream, so restoring with
        # CH disabled would silently misalign them.
        raise SessionDecodeError(
            "session was checkpointed with contraction-hierarchy "
            "candidate streams (use_contraction=true) but CH is "
            "disabled in this process (REPRO_DISABLE_CH / "
            "set_ch_enabled); stream offsets would not line up",
            field="options",
        )
    search = BSSRSearch(
        network, query, aggregator, options, checkpointable=True
    )
    state_payload = _require(payload, "state", dict, where="search")
    state = search.state
    n = query.size
    num_vertices = network.num_vertices

    state.k = _require(state_payload, "k", int, where="search.state")
    state.serial = _require(state_payload, "serial", int, where="search.state")
    state.resumes = _require(
        state_payload, "resumes", int, where="search.state"
    )

    state.archive = {
        route.pois: route
        for route in _decode_routes(state_payload, "archive", num_vertices)
    }

    # Restore the skyband member-for-member (in its stored score-sorted
    # order) instead of re-deriving it from the archive, so even
    # equal-score representatives are the original ones.
    members = _decode_routes(state_payload, "skyband", num_vertices)
    for route in members:
        state.archive.setdefault(route.pois, route)
    band = _ArchivingSkyband(state.k, state.archive)
    _decoding("search.state.skyband", lambda: band.restore(members))
    state.skyband = band

    routes, cols = _decode_partials(
        state_payload, "deferred", num_vertices, aggregator, n
    )
    state.deferred = [
        _Deferred(route=route, consumed=consumed)
        for route, consumed in zip(routes, cols["consumed"])
    ]

    # Queue priorities are a pure function of the route under the
    # configured policy; the serial tiebreak makes the heap order total,
    # so recomputing them restores the exact pop sequence.
    routes, cols = _decode_partials(
        state_payload,
        "queue",
        num_vertices,
        aggregator,
        n,
        ("queue_serial",),
    )
    queue = [
        (search._priority(route), serial, route, consumed)
        for route, serial, consumed in zip(
            routes, cols["queue_serial"], cols["consumed"]
        )
    ]
    heapq.heapify(queue)
    state.queue = queue

    bounds_payload = state_payload.get("bounds", _MISSING)
    if bounds_payload is _MISSING:
        raise SessionDecodeError(
            "search.state is missing required field 'bounds'", field="bounds"
        )
    state.bounds = bounds_from_dict(bounds_payload)
    if state.bounds is not None:
        search.bounds = state.bounds

    cache: dict[tuple[int, int], PoICandidateSearch] = {}
    for entry in _require(state_payload, "cache", list, where="search.state"):
        source = _require(entry, "source", int, where="search.state.cache")
        position = _require(
            entry, "position", int, where="search.state.cache"
        )

        def rebuild(entry=entry, position=position):
            return PoICandidateSearch.from_dict(
                _require(entry, "search", dict, where="search.state.cache"),
                network,
                query.specs[position],
                stats=search.stats,
                where="search.state.cache",
            )

        cache[(source, position)] = _decoding("search.state.cache", rebuild)
    state.cache = cache

    search._started = _require(payload, "started", bool, where="search")
    search._first_radius_recorded = _require(
        payload, "first_radius_recorded", bool, where="search"
    )
    # Reverse distances to the destination are deterministic, so they
    # are recomputed instead of shipped (run() computes them itself for
    # a not-yet-started search).  _make_dest_dist keeps the oracle type
    # (eager dict vs lazy CH oracle) matching a live search's.
    if search._started and query.destination is not None:
        state.dest_dist = search._make_dest_dist()
    return search


# ---------------------------------------------------------------------------
# upgrading schema version 1 payloads


def _v1_routes_block(entries: list, **int64_columns) -> dict:
    return _routes_block(
        [entry["pois"] for entry in entries],
        [entry["sims"] for entry in entries],
        [entry["length"] for entry in entries],
        [entry["semantic"] for entry in entries],
        **int64_columns,
    )


def _v1_partials_block(entries: list, **int64_columns) -> dict:
    routes = [entry["route"] for entry in entries]
    return _v1_routes_block(
        routes,
        serial=[route["serial"] for route in routes],
        consumed=[entry["consumed"] for entry in entries],
        **int64_columns,
    )


def _v1_cached_search(search: dict) -> dict:
    live = [v for v, _ in search["dist"]]
    if [v for v, _ in search["path_sim"]] != live:
        raise ValueError("dist and path_sim list different vertices")
    settled_ids = search["settled"]
    if settled_ids and min(settled_ids) < 0:
        raise ValueError("negative settled vertex id")
    flags = bytearray(max(settled_ids) + 1 if settled_ids else 0)
    for v in settled_ids:
        flags[v] = 1
    candidates = search["candidates"]
    # the v1 heap is dropped: the decoder derives it from the live labels
    return {
        "source": search["source"],
        "radius": search["radius"],
        "live": pack(INT32, live),
        "dist": pack(FLOAT64, [d for _, d in search["dist"]]),
        "path_sim": pack(FLOAT64, [s for _, s in search["path_sim"]]),
        "settled": pack_flags(flags),
        "cand_dist": pack(FLOAT64, [c[0] for c in candidates]),
        "cand_vertex": pack(INT32, [c[1] for c in candidates]),
        "cand_sim": pack(FLOAT64, [c[2] for c in candidates]),
    }


def upgrade_v1(payload: dict) -> dict:
    """A schema-version-1 session payload in the version-2 layout.

    Version 1 wrote route lists and cached searches as JSON lists of
    scalars; this repacks them into columns and leaves every other
    field alone.  A pure dict -> dict function (the input is not
    modified) and the only code that knows version 1: once no stored
    payload is older than version 2 it can be deleted.
    """
    search = _require(payload, "search", dict)
    state = _require(search, "state", dict, where="search")
    upgraded = dict(state)
    for name in ("archive", "skyband"):
        entries = _require(state, name, list, where="search.state")
        upgraded[name] = _decoding(
            f"search.state.{name}", lambda: _v1_routes_block(entries)
        )
    deferred = _require(state, "deferred", list, where="search.state")
    upgraded["deferred"] = _decoding(
        "search.state.deferred", lambda: _v1_partials_block(deferred)
    )
    queue = _require(state, "queue", list, where="search.state")
    upgraded["queue"] = _decoding(
        "search.state.queue",
        lambda: _v1_partials_block(
            queue, queue_serial=[entry["serial"] for entry in queue]
        ),
    )
    cache = _require(state, "cache", list, where="search.state")
    upgraded["cache"] = _decoding(
        "search.state.cache",
        lambda: [
            {**entry, "search": _v1_cached_search(entry["search"])}
            for entry in cache
        ],
    )
    return {
        **payload,
        "version": 2,
        "search": {**search, "state": upgraded},
    }


# ---------------------------------------------------------------------------
# planning sessions


def _serializable_categories(categories: list) -> list:
    out = []
    for item in categories:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SessionEncodeError(
                "only sessions over plain category sequences (names or "
                f"ids) are serializable; got {item!r} — predicate "
                "requirements have no JSON form"
            )
        out.append(item)
    return out


def _page_to_dict(page) -> dict:
    return {
        "number": page.number,
        "first_rank": page.first_rank,
        "resumed": page.resumed,
        "exhausted": page.exhausted,
        "routes": [route_to_dict(r) for r in page.routes],
        "stats": page.stats.to_dict(),
    }


def _page_from_dict(payload: dict):
    from repro.core.session import Page

    return Page(
        number=_require(payload, "number", int, where="pages"),
        routes=[
            route_from_dict(entry, where="pages.routes")
            for entry in _require(payload, "routes", list, where="pages")
        ],
        first_rank=_require(payload, "first_rank", int, where="pages"),
        stats=_decoding(
            "pages.stats",
            lambda: SearchStats.from_dict(
                _require(payload, "stats", dict, where="pages")
            ),
        ),
        resumed=_require(payload, "resumed", bool, where="pages"),
        exhausted=_require(payload, "exhausted", bool, where="pages"),
    )


def session_to_dict(session: "PlanningSession") -> dict:
    """Serialize a session to a versioned JSON-compatible dict."""
    destination = session.compiled.destination
    return {
        "format": SESSION_FORMAT,
        "version": SCHEMA_VERSION,
        "aggregator": session.engine.aggregator.name,
        "query": {
            "start": session.compiled.start,
            "categories": _serializable_categories(session.categories),
            "destination": destination,
        },
        "page_size": session.page_size,
        "diversity_lambda": session.diversity_lambda,
        "horizon": session._horizon,
        "served": [route_to_dict(r) for r in session._served],
        "pages": [_page_to_dict(page) for page in session.pages],
        "search": search_to_dict(session._search),
    }


def session_from_dict(
    engine: "SkySREngine", payload: dict
) -> "PlanningSession":
    """Restore a session against ``engine`` (strict, versioned).

    ``engine`` must serve the same dataset (network + forest) and
    aggregator the session was created over; dataset provenance is the
    caller's contract (the CLI records preset/scale/seed alongside the
    payload).  Raises :class:`~repro.errors.SessionDecodeError` naming
    the offending field for any malformed or version-incompatible
    payload.
    """
    from repro.core.diversity import validate_lambda
    from repro.core.session import PlanningSession

    fmt = _require(payload, "format", str)
    if fmt != SESSION_FORMAT:
        raise SessionDecodeError(
            f"payload format {fmt!r} is not {SESSION_FORMAT!r}",
            field="format",
        )
    version = _require(payload, "version", int)
    if version == 1:
        payload = upgrade_v1(payload)
    elif version != SCHEMA_VERSION:
        raise SessionDecodeError(
            f"unsupported session schema version {version}; this library "
            f"reads versions 1 to {SCHEMA_VERSION} (forward-compatible "
            "payloads are rejected, not guessed at)",
            field="version",
        )
    aggregator_name = _require(payload, "aggregator", str)
    if aggregator_name != engine.aggregator.name:
        raise SessionDecodeError(
            f"session was recorded under aggregator {aggregator_name!r} "
            f"but the engine uses {engine.aggregator.name!r}",
            field="aggregator",
        )

    query = _require(payload, "query", dict)
    start = _require(query, "start", int, where="query")
    categories_payload = _require(query, "categories", list, where="query")
    categories: list = []
    for item in categories_payload:
        if isinstance(item, bool) or not isinstance(item, (int, str)):
            raise SessionDecodeError(
                f"query.categories entries must be names or ids, got "
                f"{item!r}",
                field="categories",
            )
        categories.append(item)
    destination = _require(query, "destination", (int, type(None)), where="query")

    page_size = _require(payload, "page_size", int)
    if page_size < 1:
        raise SessionDecodeError(
            f"page_size must be >= 1, got {page_size}", field="page_size"
        )
    diversity_lambda = _require(payload, "diversity_lambda", (int, float))
    _decoding(
        "diversity_lambda", lambda: validate_lambda(float(diversity_lambda))
    )

    session = object.__new__(PlanningSession)
    session.engine = engine
    session.page_size = page_size
    session.diversity_lambda = float(diversity_lambda)
    session.categories = categories
    session.compiled = engine.compile(
        start, categories, destination=destination
    )
    session._search = search_from_dict(
        engine.network,
        session.compiled,
        engine.aggregator,
        _require(payload, "search", dict),
    )
    # Rejoin the engine's cross-query cache (never serialized — cache
    # membership is a property of the serving engine, not the session).
    session._search.shared_cache = engine.distance_cache
    session.pages = [
        _page_from_dict(entry)
        for entry in _require(payload, "pages", list)
    ]
    session._served = [
        route_from_dict(entry, where="served")
        for entry in _require(payload, "served", list)
    ]
    session._served_scores = {r.scores() for r in session._served}
    session._horizon = _require(payload, "horizon", int)
    return session


# ---------------------------------------------------------------------------
# JSON text round-trip


def dumps_session(session: "PlanningSession", *, indent: int | None = None) -> str:
    """Session → JSON text (the at-rest form of :mod:`repro.store`)."""
    return json.dumps(session_to_dict(session), indent=indent)


def loads_session(engine: "SkySREngine", text: str) -> "PlanningSession":
    """JSON text → session, with corrupted/truncated input reported as
    a typed :class:`~repro.errors.SessionDecodeError` (field
    ``"<json>"``), never a bare ``json.JSONDecodeError``."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SessionDecodeError(
            f"corrupted session payload: not valid JSON ({exc})",
            field="<json>",
        ) from exc
    if not isinstance(payload, dict):
        raise SessionDecodeError(
            "session payload must be a JSON object, got "
            f"{type(payload).__name__}",
            field="<json>",
        )
    return session_from_dict(engine, payload)
