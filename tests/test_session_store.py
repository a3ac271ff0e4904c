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

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.core.serialize import SCHEMA_VERSION
from repro.core.session import PlanningSession
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
from repro.service import API_VERSION, SessionApi, SkySRService
from repro.store import DiskSessionStore, InMemorySessionStore

from .conftest import pick_query, random_instance

PAGES = 4

#: a stored /v1 session checkpoint (schema version 1), kept as written
CHECKPOINT_FIXTURE = Path(__file__).parent / "data" / "session_v1_mini_k2.json"


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


def test_committed_v1_checkpoint_pages_like_a_fresh_engine():
    """A ``/v1`` checkpoint written by an earlier release still restores.

    ``tests/data/session_v1_mini_k2.json`` is the stored payload of a
    ``/v1`` session on the ``mini`` preset with ``page_size`` 2 after
    one page — cached candidate searches included.  It re-encodes to
    the same bytes, and restored through the API its next pages
    continue the ranking of a fresh engine's one-shot top-k."""
    text = CHECKPOINT_FIXTURE.read_text()
    payload = json.loads(text)
    assert payload["version"] == SCHEMA_VERSION == 1
    city = mini_city()
    api = SessionApi(SkySRService(city), InMemorySessionStore())
    restored = PlanningSession.from_dict(api.service.engine, payload)
    assert json.dumps(restored.to_dict()) == text
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
from repro.core.session import PlanningSession
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
    payload["search"]["state"]["skyband"][0]["pois"] = "oops"
    with pytest.raises(SessionDecodeError):
        PlanningSession.from_dict(engine, payload)


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
