"""Durable sessions: serialization round trips and store semantics.

Three pillars of evidence:

* **round-trip exactness** (the acceptance property) — a session
  serialized to JSON and restored yields pop-for-pop identical pages
  (same scores, same PoIs, same queue pops) as the in-process oracle
  session it was copied from, across every page, including sessions
  serialized *before* their first page, with destinations, and across
  an OS process boundary (the payload really is self-contained);
* **schema negotiation** — unknown payload versions, wrong formats,
  corrupted/truncated JSON, and missing or mistyped fields all raise
  the typed :class:`~repro.errors.SessionDecodeError` naming the
  offending field, never a bare ``KeyError``;
* **store semantics** — TTL expiry (typed, via an injected fake
  clock), LRU eviction order, :class:`~repro.errors.AdmissionError`
  backpressure on budget exhaustion, typed not-found after close, and
  disk-store adoption across instances.
"""

from __future__ import annotations

import base64
import json
import math
import random
import subprocess
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.serialize import SCHEMA_VERSION
from repro.core.search import PoICandidateSearch
from repro.core.session import PlanningSession
from repro.core.spec import compile_query
from repro.core.stats import SearchStats
from repro.datasets.presets import mini_city
from repro.errors import (
    AdmissionError,
    QueryError,
    SessionDecodeError,
    SessionEncodeError,
    SessionExpiredError,
    SessionNotFoundError,
)
from repro.graph.io import save_dataset
from repro.graph.poi import PoIIndex
from repro.semantics.similarity import HierarchyWuPalmer
from repro.service import API_VERSION, SessionApi, SkySRService
from repro.store import DiskSessionStore, InMemorySessionStore

from .conftest import pick_query, random_instance

PAGES = 4

#: a stored /v1 session checkpoint (schema version 1), kept as written
CHECKPOINT_FIXTURE = Path(__file__).parent / "data" / "session_v1_mini_k2.json"
#: the same checkpoint in schema version 2 (packed columns)
CHECKPOINT_V2_FIXTURE = Path(__file__).parent / "data" / "session_v2_mini_k2.json"


def page_fingerprint(page):
    """Everything a page must preserve across a round trip."""
    return {
        "scores": [(r.length, round(r.semantic, 12)) for r in page.routes],
        "pois": [r.pois for r in page.routes],
        "first_rank": page.first_rank,
        "pops": page.stats.routes_expanded,
        "exhausted": page.exhausted,
    }


def _engine_and_query(seed, size=3, **session_kwargs):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    return SkySREngine(network, forest), start, cats


# ---------------------------------------------------------------------------
# round-trip exactness (the acceptance property)


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_pages_match_oracle_pop_for_pop(seed):
    """Serialize -> deserialize -> resume gives pages identical to the
    in-process oracle session: scores, PoIs, ranks, AND queue pops.

    The restored copy is re-serialized before *every* page, so the
    property covers payloads of started sessions at every depth, not
    just the newborn one.
    """
    engine, start, cats = _engine_and_query(seed)
    oracle = engine.session(start, cats, page_size=2)
    text = engine.session(start, cats, page_size=2).dumps()
    for _ in range(PAGES):
        restored = PlanningSession.loads(engine, text)
        expected = page_fingerprint(oracle.next_page())
        assert page_fingerprint(restored.next_page()) == expected
        text = restored.dumps()
        if expected["exhausted"]:
            break


@pytest.mark.parametrize("seed", [1, 4, 9])
def test_round_trip_survives_json_text_not_just_dicts(seed):
    """dumps/loads (the at-rest form) is lossless, not merely to_dict."""
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=3)
    session.next_page()
    clone = PlanningSession.loads(engine, session.dumps())
    # identical continuation from the JSON text
    assert page_fingerprint(clone.next_page()) == page_fingerprint(
        session.next_page()
    )
    # and the payload is pure JSON (round-trips through the codec)
    payload = json.loads(session.dumps())
    assert payload == json.loads(json.dumps(payload))


@pytest.mark.parametrize("seed", [2, 7])
def test_round_trip_with_destination(seed):
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, 2)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    destination = rng.randrange(network.num_vertices)
    engine = SkySREngine(network, forest)
    oracle = engine.session(start, cats, destination=destination, page_size=2)
    copy = engine.session(start, cats, destination=destination, page_size=2)
    copy.next_page()
    restored = PlanningSession.loads(engine, copy.dumps())
    oracle.next_page()
    assert page_fingerprint(restored.next_page()) == page_fingerprint(
        oracle.next_page()
    )


@pytest.mark.parametrize("seed", [0, 5])
def test_round_trip_with_diversity(seed):
    engine, start, cats = _engine_and_query(seed)
    oracle = engine.session(start, cats, page_size=2, diversity_lambda=0.5)
    copy = engine.session(start, cats, page_size=2, diversity_lambda=0.5)
    for _ in range(3):
        copy = PlanningSession.loads(engine, copy.dumps())
        expected = page_fingerprint(oracle.next_page())
        assert page_fingerprint(copy.next_page()) == expected
        if expected["exhausted"]:
            break


@pytest.mark.parametrize("seed", range(6))
def test_restored_resume_beats_fresh_recompute(seed):
    """The acceptance inequality: restoring + resuming does strictly
    fewer queue pops than recomputing the widened query from scratch."""
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    restored = PlanningSession.loads(engine, session.dumps())
    page2 = restored.next_page()
    if page2.stats.extra.get("exhausted"):
        pytest.skip("instance exhausted on page 1 — no resume work to save")
    fresh = engine.query(start, cats, options=BSSROptions().but(k=4))
    assert page2.stats.routes_expanded < fresh.stats.routes_expanded


def _pages_like_a_fresh_engine(payload: dict) -> None:
    """Restored through the API, the stored session's next two pages
    continue the ranking of a fresh engine's one-shot top-6."""
    city = mini_city()
    api = SessionApi(SkySRService(city), InMemorySessionStore())
    api.store.put("fixture", payload)
    served = [
        (tuple(r["pois"]), r["length"]) for r in payload["served"]
    ]
    for number in (2, 3):
        response = api.dispatch(
            "POST", f"/{API_VERSION}/sessions/fixture/pages"
        )
        assert response.status == 200
        assert response.body["page"] == number
        assert response.body["first_rank"] == len(served) + 1
        served += [
            (tuple(card["pois"]), card["distance"])
            for card in response.body["routes"]
        ]
    query = payload["query"]
    fresh = SkySREngine(city.network, city.forest).query(
        query["start"], query["categories"], options=BSSROptions(k=6)
    )
    assert served == [(r.pois, r.length) for r in fresh.topk(6)]


def test_committed_v1_checkpoint_pages_like_a_fresh_engine():
    """A ``/v1`` checkpoint written by an earlier release still restores.

    ``tests/data/session_v1_mini_k2.json`` is the stored payload of a
    ``/v1`` session on the ``mini`` preset with ``page_size`` 2 after
    one page — cached candidate searches included — in schema version
    1.  It is upgraded on read; re-encoded, it gives exactly the
    committed version-2 fixture, and restored through the API its next
    pages continue the ranking of a fresh engine's one-shot top-k."""
    payload = json.loads(CHECKPOINT_FIXTURE.read_text())
    assert payload["version"] == 1 and SCHEMA_VERSION == 2
    city = mini_city()
    restored = PlanningSession.from_dict(
        SkySREngine(city.network, city.forest), payload
    )
    assert json.dumps(restored.to_dict()) == CHECKPOINT_V2_FIXTURE.read_text()
    _pages_like_a_fresh_engine(payload)


def test_committed_v2_checkpoint_re_encodes_byte_for_byte():
    """``tests/data/session_v2_mini_k2.json`` — the same session in
    schema version 2 — re-encodes to the same bytes and pages like a
    fresh engine."""
    text = CHECKPOINT_V2_FIXTURE.read_text()
    payload = json.loads(text)
    assert payload["version"] == SCHEMA_VERSION
    city = mini_city()
    restored = PlanningSession.from_dict(
        SkySREngine(city.network, city.forest), payload
    )
    assert json.dumps(restored.to_dict()) == text
    _pages_like_a_fresh_engine(payload)


def test_unstarted_session_round_trip():
    """A session serialized before page 1 restores and starts cleanly."""
    engine, start, cats = _engine_and_query(0)
    oracle = engine.session(start, cats, page_size=2)
    restored = PlanningSession.loads(
        engine, engine.session(start, cats, page_size=2).dumps()
    )
    assert not restored.started
    assert page_fingerprint(restored.next_page()) == page_fingerprint(
        oracle.next_page()
    )


def test_non_checkpointable_search_refuses_to_serialize():
    engine, start, cats = _engine_and_query(3)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    session._search.checkpointable = False
    with pytest.raises(SessionEncodeError):
        session.to_dict()


# ---------------------------------------------------------------------------
# cross-process round trip (the payload is genuinely self-contained)


_CHILD = """
import json, sys
from repro.core.search import PoICandidateSearch
from repro.core.session import PlanningSession
from repro.core.spec import compile_query
from repro.core.stats import SearchStats
from repro.core.engine import SkySREngine
from repro.graph.io import load_dataset

dataset_path, session_path = sys.argv[1], sys.argv[2]
network, forest = load_dataset(dataset_path)
engine = SkySREngine(network, forest)
with open(session_path, encoding="utf-8") as fh:
    session = PlanningSession.loads(engine, fh.read())
page = session.next_page()
print(json.dumps({
    "scores": [(r.length, round(r.semantic, 12)) for r in page.routes],
    "pois": [list(r.pois) for r in page.routes],
    "first_rank": page.first_rank,
    "pops": page.stats.routes_expanded,
}))
"""


def test_cross_process_round_trip(tmp_path: Path):
    """Page 1 here, page 2 in a fresh OS process restoring from a file:
    identical routes and identical (strictly-fewer-than-fresh) pops."""
    network, forest, rng = random_instance(1)
    picked = pick_query(network, forest, rng, 3)
    if picked is None:
        pytest.skip("instance admits no query of this size")
    start, cats = picked
    engine = SkySREngine(network, forest)

    dataset_path = tmp_path / "city.json"
    save_dataset(dataset_path, network, forest)
    session = engine.session(start, cats, page_size=2)
    session.next_page()
    session_path = tmp_path / "session.json"
    session_path.write_text(session.dumps(), encoding="utf-8")

    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(dataset_path), str(session_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    child = json.loads(proc.stdout)

    oracle_page2 = session.next_page()  # the same session, in-process
    assert child["scores"] == [
        [r.length, round(r.semantic, 12)] for r in oracle_page2.routes
    ]
    assert child["pois"] == [list(r.pois) for r in oracle_page2.routes]
    assert child["first_rank"] == oracle_page2.first_rank
    assert child["pops"] == oracle_page2.stats.routes_expanded
    fresh = engine.query(start, cats, options=BSSROptions().but(k=4))
    assert child["pops"] < fresh.stats.routes_expanded


# ---------------------------------------------------------------------------
# cached candidate searches: the heap is derived, not shipped


def _drain(search: PoICandidateSearch):
    stats = SearchStats()
    search.adopt_stats(stats)
    stream = list(search.candidates_until(math.inf))
    return stream, stats


def test_cached_search_checkpoint_drains_like_the_original():
    """Checkpointed at random mid-expansion budgets and restored, a
    candidate search drains exactly like the original: same candidate
    stream, radius and settled set, and the same settle, relax and push
    counts — also when the checkpointed heap held stale entries, which
    the restored heap (rebuilt from the live labels) does not."""
    stale_checkpoints = 0
    checkpoints = 0
    for seed in range(6):
        for directed in (False, True):
            network, forest, rng = random_instance(
                seed, rows=7, cols=7, num_pois=20, directed=directed
            )
            picked = pick_query(network, forest, rng, 2)
            if picked is None:
                continue
            start, cats = picked
            compiled = compile_query(
                start, cats, PoIIndex(network, forest), HierarchyWuPalmer()
            )
            for spec in compiled.specs:
                for _ in range(4):
                    source = rng.randrange(network.num_vertices)
                    full = PoICandidateSearch(network, spec, source)
                    full.expand_fully()
                    original = PoICandidateSearch(network, spec, source)
                    budget = rng.uniform(0.0, full.radius * 1.1)
                    list(original.candidates_until(budget))
                    payload = json.loads(json.dumps(original.to_dict()))
                    restored = PoICandidateSearch.from_dict(payload, network, spec)
                    assert restored.to_dict() == payload
                    live = {v for _, v in original._heap if not original._settled[v]}
                    stale_checkpoints += len(original._heap) > len(live)
                    checkpoints += 1
                    assert restored.next_distance() == original.next_distance()
                    expected, expected_stats = _drain(original)
                    actual, actual_stats = _drain(restored)
                    assert actual == expected
                    assert restored.candidates == original.candidates
                    assert restored.radius == original.radius
                    assert restored._settled == original._settled
                    for counter in ("settled", "relaxed", "heap_pushes"):
                        assert getattr(actual_stats, counter) == getattr(
                            expected_stats, counter
                        ), counter
    assert checkpoints >= 40
    assert stale_checkpoints > 0


# ---------------------------------------------------------------------------
# schema-version negotiation and strict decoding


def _payload(seed=0, pages=1):
    engine, start, cats = _engine_and_query(seed)
    session = engine.session(start, cats, page_size=2)
    for _ in range(pages):
        session.next_page()
    return engine, session.to_dict()


def test_version_bump_is_rejected_with_field():
    engine, payload = _payload()
    payload["version"] = SCHEMA_VERSION + 1
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "version"
    assert str(SCHEMA_VERSION + 1) in str(exc.value)


def test_wrong_format_is_rejected_with_field():
    engine, payload = _payload()
    payload["format"] = "not-a-session"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "format"


def test_aggregator_mismatch_is_rejected_with_field():
    engine, payload = _payload()
    payload["aggregator"] = "min"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "aggregator"


def test_corrupted_json_text_raises_typed_error():
    engine, payload = _payload()
    text = json.dumps(payload)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.loads(engine, text[: len(text) // 2])  # truncated
    assert exc.value.field == "<json>"
    with pytest.raises(SessionDecodeError):
        PlanningSession.loads(engine, "{not json")


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda p: p.pop("search"), "search"),
        (lambda p: p.pop("query"), "query"),
        (lambda p: p.__setitem__("page_size", "two"), "page_size"),
        (lambda p: p.__setitem__("page_size", True), "page_size"),
        (lambda p: p.__setitem__("served", 3), "served"),
        (lambda p: p["search"].pop("state"), "state"),
        (lambda p: p["search"]["state"].__setitem__("queue", 7), "queue"),
    ],
)
def test_missing_or_mistyped_fields_name_the_field(mutate, field):
    """Strict decoding: never a KeyError/TypeError, always the typed
    error naming the offending field."""
    engine, payload = _payload()
    mutate(payload)
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == field


def test_corrupt_route_payload_is_wrapped_not_raw():
    engine, payload = _payload()
    payload["search"]["state"]["skyband"]["pois"] = "oops"
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == "search.state.skyband.pois"


def _repack(typecode, mutate):
    """A payload edit: decode one column, ``mutate`` its items (or its
    raw bytes, when ``typecode`` is None), encode it back."""

    def edit(text):
        raw = base64.b64decode(text)
        if typecode is None:
            raw = mutate(raw)
        else:
            raw = array(typecode, mutate(list(array(typecode, raw)))).tobytes()
        return base64.b64encode(raw).decode("ascii")

    return edit


def _last_cache_search(payload):
    return payload["search"]["state"]["cache"][-1]["search"]


#: (block getter, column, edit, field the error must name)
_MALFORMED = {
    "bad-base64": (
        lambda p: p["search"]["state"]["skyband"],
        "length",
        lambda text: "*" + text[1:],
        "search.state.skyband.length",
    ),
    "truncated-route-column": (
        lambda p: p["search"]["state"]["archive"],
        "sims",
        _repack(None, lambda raw: raw[:-3]),
        "search.state.archive.sims",
    ),
    "truncated-search-column": (
        _last_cache_search,
        "dist",
        _repack(None, lambda raw: raw[:-1]),
        "search.state.cache.dist",
    ),
    "mismatched-route-lengths": (
        lambda p: p["search"]["state"]["deferred"],
        "consumed",
        _repack("q", lambda items: items[:-1]),
        "search.state.deferred.consumed",
    ),
    "mismatched-search-lengths": (
        _last_cache_search,
        "path_sim",
        _repack("d", lambda items: items + [0.5]),
        "search.state.cache.path_sim",
    ),
    "mismatched-candidate-lengths": (
        _last_cache_search,
        "cand_sim",
        _repack("d", lambda items: items[:-1]),
        "search.state.cache.cand_sim",
    ),
    "pois-lengths-do-not-add-up": (
        lambda p: p["search"]["state"]["skyband"],
        "pois_len",
        _repack("i", lambda items: [items[0] + 1] + items[1:]),
        "search.state.skyband.pois_len",
    ),
    "sims-lengths-do-not-add-up": (
        lambda p: p["search"]["state"]["archive"],
        "sims_len",
        _repack("i", lambda items: [items[0] - 1] + items[1:]),
        "search.state.archive.sims_len",
    ),
    "route-vertex-out-of-range": (
        lambda p: p["search"]["state"]["skyband"],
        "pois",
        _repack("i", lambda items: [10**6] + items[1:]),
        "search.state.skyband.pois",
    ),
    "negative-route-vertex": (
        lambda p: p["search"]["state"]["deferred"],
        "pois",
        _repack("i", lambda items: items[:-1] + [-1]),
        "search.state.deferred.pois",
    ),
    "live-vertex-out-of-range": (
        _last_cache_search,
        "live",
        _repack("i", lambda items: items[:-1] + [10**6]),
        "search.state.cache.live",
    ),
    "candidate-vertex-out-of-range": (
        _last_cache_search,
        "cand_vertex",
        _repack("i", lambda items: [-5] + items[1:]),
        "search.state.cache.cand_vertex",
    ),
    "settled-not-zlib": (
        _last_cache_search,
        "settled",
        _repack(None, lambda raw: b"not zlib"),
        "search.state.cache.settled",
    ),
    "settled-beyond-network": (
        _last_cache_search,
        "settled",
        _repack(None, lambda raw: zlib.compress(b"\1" * 10**6)),
        "search.state.cache.settled",
    ),
    "settled-flag-not-binary": (
        _last_cache_search,
        "settled",
        _repack(None, lambda raw: zlib.compress(b"\1\2")),
        "search.state.cache.settled",
    ),
    "source-out-of-range": (
        _last_cache_search,
        "source",
        lambda source: 10**6,
        "search.state.cache.source",
    ),
    "column-not-a-string": (
        lambda p: p["search"]["state"]["queue"],
        "queue_serial",
        lambda text: [1, 2],
        "search.state.queue.queue_serial",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_packed_column_names_the_field(case):
    """Strict packed-column decoding: bad base64, truncated columns,
    mismatched lengths, lengths that do not add up and vertices outside
    the network all raise the typed error naming the column."""
    block_of, column, edit, field = _MALFORMED[case]
    engine, payload = _payload(seed=2, pages=2)
    block = block_of(payload)
    block[column] = edit(block[column])
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == field


@pytest.mark.parametrize("column", ["pois", "semantic"])
def test_missing_packed_column_names_the_field(column):
    engine, payload = _payload()
    del payload["search"]["state"]["archive"][column]
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(engine, payload)
    assert exc.value.field == f"search.state.archive.{column}"


def test_malformed_v1_payload_is_typed_through_the_upgrade():
    payload = json.loads(CHECKPOINT_FIXTURE.read_text())
    payload["search"]["state"]["deferred"][0]["route"]["pois"] = "oops"
    city = mini_city()
    with pytest.raises(SessionDecodeError) as exc:
        PlanningSession.from_dict(SkySREngine(city.network, city.forest), payload)
    assert exc.value.field == "search.state.deferred"


# ---------------------------------------------------------------------------
# store semantics


def test_put_get_delete_and_typed_not_found():
    store = InMemorySessionStore()
    store.put("a", {"x": 1})
    assert store.get("a") == {"x": 1}
    assert "a" in store and len(store) == 1
    assert store.delete("a") is True
    assert store.delete("a") is False
    with pytest.raises(SessionNotFoundError) as exc:
        store.get("a")
    assert not isinstance(exc.value, SessionExpiredError)


def test_ttl_expiry_is_typed_and_counted():
    now = [0.0]
    store = InMemorySessionStore(ttl=10.0, clock=lambda: now[0])
    store.put("a", {"x": 1})
    now[0] = 5.0
    assert store.get("a") == {"x": 1}
    now[0] = 20.0
    with pytest.raises(SessionExpiredError):
        store.get("a")
    assert isinstance(SessionExpiredError("x"), SessionNotFoundError)
    assert store.stats.expirations == 1
    assert "a" not in store and len(store) == 0


def test_touch_refreshes_ttl():
    now = [0.0]
    store = InMemorySessionStore(ttl=10.0, clock=lambda: now[0])
    store.put("a", {"x": 1})
    now[0] = 8.0
    store.touch("a")
    now[0] = 15.0  # would have expired without the touch
    assert store.get("a") == {"x": 1}


def test_lru_eviction_order_refreshed_by_reads():
    store = InMemorySessionStore(max_entries=2)
    store.put("a", {"v": 1})
    store.put("b", {"v": 2})
    store.get("a")  # refresh a; b becomes LRU
    store.put("c", {"v": 3})
    assert "b" not in store and "a" in store and "c" in store
    assert store.stats.evictions == 1
    assert store.ids() == ["a", "c"]  # least recently used first


def test_byte_budget_evicts_lru():
    store = InMemorySessionStore(max_bytes=100)
    store.put("a", {"v": "x" * 30})
    store.put("b", {"v": "y" * 30})
    store.put("c", {"v": "z" * 30})
    assert "a" not in store and "b" in store and "c" in store


def test_admission_error_when_eviction_disabled():
    store = InMemorySessionStore(max_entries=1, evict=False)
    store.put("a", {"v": 1})
    with pytest.raises(AdmissionError):
        store.put("b", {"v": 2})
    store.put("a", {"v": 9})  # replacing the same id is always admitted
    assert store.get("a") == {"v": 9}


def test_admission_error_when_payload_can_never_fit():
    store = InMemorySessionStore(max_bytes=8)
    with pytest.raises(AdmissionError):
        store.put("a", {"big": "x" * 100})


@pytest.mark.parametrize("bad", ["", "a/b", ".hidden", "a b", "x\n"])
def test_unsafe_session_ids_are_rejected(bad):
    with pytest.raises(QueryError):
        InMemorySessionStore().put(bad, {})


def test_store_round_trips_real_session_payloads():
    engine, payload = _payload(pages=1)
    store = InMemorySessionStore()
    store.put("trip", payload)
    restored = PlanningSession.from_dict(engine, store.get("trip"))
    assert restored.started and len(restored.served) == 2


class _ListLRU:
    """Reference model of the store policy: a plain list, least
    recently used first, re-scanned and re-summed on every step."""

    def __init__(self, *, max_entries, max_bytes, ttl, evict, clock):
        self.max_entries, self.max_bytes = max_entries, max_bytes
        self.ttl, self.evict, self.clock = ttl, evict, clock
        self.order: list[list] = []  # [id, size, stored_at]
        self.evictions = self.expirations = 0

    def _find(self, sid):
        return next((e for e in self.order if e[0] == sid), None)

    def _lapsed(self, entry):
        return self.ttl is not None and self.clock() - entry[2] > self.ttl

    def expire(self):
        lapsed = [e for e in self.order if self._lapsed(e)]
        for e in lapsed:
            self.order.remove(e)
        self.expirations += len(lapsed)

    def put(self, sid, size):
        self.expire()
        if self.max_bytes is not None and size > self.max_bytes:
            raise AdmissionError("never fits")
        while True:
            others = [e for e in self.order if e[0] != sid]
            entries = len(others) + 1
            used = sum(e[1] for e in others) + size
            if not (
                (self.max_entries is not None and entries > self.max_entries)
                or (self.max_bytes is not None and used > self.max_bytes)
            ):
                break
            if not others or not self.evict:
                raise AdmissionError("full")
            self.order.remove(others[0])
            self.evictions += 1
        entry = self._find(sid)
        if entry is not None:
            self.order.remove(entry)
        self.order.append([sid, size, self.clock()])

    def get(self, sid):
        entry = self._find(sid)
        if entry is None:
            raise SessionNotFoundError(sid)
        if self._lapsed(entry):
            self.order.remove(entry)
            self.expirations += 1
            raise SessionExpiredError(sid)
        self.order.remove(entry)
        self.order.append(entry)

    def touch(self, sid):
        entry = self._find(sid)
        if entry is None or self._lapsed(entry):
            raise SessionNotFoundError(sid)
        entry[2] = self.clock()
        self.order.remove(entry)
        self.order.append(entry)

    def delete(self, sid):
        entry = self._find(sid)
        if entry is not None:
            self.order.remove(entry)


@pytest.mark.parametrize("seed", range(12))
def test_store_bookkeeping_matches_a_list_lru(seed):
    """Random put/get/touch/delete/expire steps against the list model:
    same key order, byte total, evictions and expirations, and the same
    typed refusals."""
    rng = random.Random(seed)
    now = [0.0]
    budget = {
        "max_entries": rng.choice([None, 2, 3, 5]),
        "max_bytes": rng.choice([None, 60, 120, 400]),
        "ttl": rng.choice([None, 4.0, 15.0]),
        "evict": rng.random() < 0.8,
    }
    store = InMemorySessionStore(clock=lambda: now[0], **budget)
    model = _ListLRU(clock=lambda: now[0], **budget)
    ids = [f"s{i}" for i in range(7)]
    for _ in range(300):
        now[0] += rng.choice([0.0, 0.5, 1.0, 3.0])
        op = rng.choice(["put", "put", "get", "get", "touch", "delete", "expire"])
        sid = rng.choice(ids)
        payload = {"v": "x" * rng.randrange(0, 90)}
        outcomes = []
        for target in (store, model):
            try:
                if op == "put":
                    if target is store:
                        store.put(sid, payload)
                    else:
                        model.put(sid, len(json.dumps(payload)))
                elif op == "expire":
                    target.expire()
                else:
                    getattr(target, op)(sid)
                outcomes.append(None)
            except (AdmissionError, SessionNotFoundError) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (op, sid)
        assert list(store._entries) == [e[0] for e in model.order]
        assert store.total_bytes == sum(e[1] for e in model.order)
        assert store.stats.evictions == model.evictions
        assert store.stats.expirations == model.expirations
    model.expire()
    assert store.ids() == [e[0] for e in model.order]
    assert store.stats.expirations == model.expirations


# ---------------------------------------------------------------------------
# disk store


def test_disk_store_adopts_existing_files(tmp_path: Path):
    first = DiskSessionStore(tmp_path)
    first.put("sess-1", {"hello": "world"})
    first.put("sess-2", {"n": 2})
    second = DiskSessionStore(tmp_path)  # fresh instance, same directory
    assert len(second) == 2
    assert second.get("sess-1") == {"hello": "world"}
    assert sorted(second.ids()) == ["sess-1", "sess-2"]


def test_disk_store_corruption_is_typed(tmp_path: Path):
    store = DiskSessionStore(tmp_path)
    store.put("s", {"ok": True})
    (tmp_path / "s.json").write_text("{truncated", encoding="utf-8")
    with pytest.raises(SessionDecodeError) as exc:
        store.get("s")
    assert exc.value.field == "<json>"


def test_disk_store_delete_removes_file(tmp_path: Path):
    store = DiskSessionStore(tmp_path)
    store.put("s", {"ok": True})
    assert (tmp_path / "s.json").exists()
    store.delete("s")
    assert not (tmp_path / "s.json").exists()
    assert list(tmp_path.glob("*.tmp")) == []  # atomic write left no junk
