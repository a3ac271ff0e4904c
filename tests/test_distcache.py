"""Cross-query distance cache: budgets, binding, and exact reuse."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from repro.core.distcache import DistanceCache, _estimate_bytes
from repro.core.engine import SkySREngine
from repro.core.search import PoICandidateSearch
from repro.core.spec import PositionSpec
from repro.datasets.presets import mini_city
from repro.errors import QueryError
from repro.service.prototype import SkySRService

from .conftest import pick_query, random_instance, score_set


def _searches(seed=31, size=3):
    """A compiled instance plus fresh searches for each position."""
    network, forest, rng = random_instance(seed)
    picked = pick_query(network, forest, rng, size)
    assert picked is not None
    start, cats = picked
    engine = SkySREngine(network, forest)
    compiled = engine.compile(start, cats)
    return network, start, compiled


def test_lookup_miss_admit_hit_cycle():
    network, start, compiled = _searches()
    cache = DistanceCache()
    spec = compiled.specs[0]
    assert cache.lookup(network, start, spec) is None
    search = PoICandidateSearch(network, spec, start)
    assert cache.admit(network, start, spec, search)
    assert cache.lookup(network, start, spec) is search
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.admissions == 1
    assert len(cache) == 1


def test_unshareable_spec_is_never_cached():
    network, start, compiled = _searches()
    cache = DistanceCache()
    anon = PositionSpec(
        index=0,
        label="predicate",
        sim_map=dict(compiled.specs[0].sim_map),
        perfect=compiled.specs[0].perfect,
        tree_ids=compiled.specs[0].tree_ids,
        share_key=None,
    )
    search = PoICandidateSearch(network, anon, start)
    assert not cache.admit(network, start, anon, search)
    assert cache.lookup(network, start, anon) is None
    assert cache.stats.unshareable == 1
    assert len(cache) == 0


def test_lru_eviction_respects_recency():
    network, start, compiled = _searches()
    cache = DistanceCache(max_entries=2)
    specs = compiled.specs
    assert len(specs) >= 3
    for spec in specs[:2]:
        cache.admit(
            network, start, spec, PoICandidateSearch(network, spec, start)
        )
    # touch the first entry so the second becomes the LRU victim
    assert cache.lookup(network, start, specs[0]) is not None
    cache.admit(
        network, start, specs[2],
        PoICandidateSearch(network, specs[2], start),
    )
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.lookup(network, start, specs[0]) is not None
    assert cache.lookup(network, start, specs[1]) is None  # evicted
    assert cache.lookup(network, start, specs[2]) is not None


def test_byte_budget_rejects_never_fitting_search():
    network, start, compiled = _searches()
    cache = DistanceCache(max_bytes=1)
    spec = compiled.specs[0]
    search = PoICandidateSearch(network, spec, start)
    assert not cache.admit(network, start, spec, search)
    assert len(cache) == 0
    assert cache.total_bytes == 0


def test_cache_binds_to_one_network():
    network, start, compiled = _searches(seed=41)
    other_network = _searches(seed=42)[0]
    cache = DistanceCache()
    cache.lookup(network, start, compiled.specs[0])
    with pytest.raises(QueryError):
        cache.lookup(other_network, 0, compiled.specs[0])


def test_invalid_budgets_rejected():
    with pytest.raises(QueryError):
        DistanceCache(max_entries=0)
    with pytest.raises(QueryError):
        DistanceCache(max_bytes=0)


def test_clear_resets_entries_but_keeps_stats():
    network, start, compiled = _searches()
    cache = DistanceCache()
    spec = compiled.specs[0]
    cache.admit(network, start, spec, PoICandidateSearch(network, spec, start))
    cache.clear()
    assert len(cache) == 0
    assert cache.total_bytes == 0
    assert cache.stats.admissions == 1


def test_byte_total_and_lru_victims_match_a_reference_model():
    """Admit, re-admit, lookup, evict and clear in a random mix.

    A list-based LRU model (least recently used first, re-summed sizes)
    is the reference: after every step the cache holds the model's keys
    in the model's recency order, so each admission's victims are the
    LRU prefix; the running byte total equals the sum of the entry
    sizes; and the eviction counter matches."""
    network, start, compiled = _searches()
    specs = compiled.specs
    search_bytes = _estimate_bytes(
        PoICandidateSearch(network, specs[0], start)
    )
    cache = DistanceCache(max_entries=5, max_bytes=3 * search_bytes)
    order: list[tuple] = []
    sizes: dict[tuple, int] = {}
    evictions = 0

    def model_admit(key, size):
        nonlocal evictions
        if size > cache.max_bytes:
            return
        if key in sizes:
            order.remove(key)
        order.append(key)
        sizes[key] = size
        while len(order) > 1 and (
            len(order) > cache.max_entries
            or sum(sizes.values()) > cache.max_bytes
        ):
            del sizes[order.pop(0)]
            evictions += 1

    def model_touch(key):
        if key in sizes:
            order.remove(key)
            order.append(key)

    rng = random.Random(5)
    row_cap = 2 * search_bytes // 72
    for _ in range(400):
        roll = rng.random()
        if roll < 0.45:  # admit or re-admit a CH bucket of random size
            key = ("bucket", rng.randrange(8))
            bucket = SimpleNamespace(pairs={0: [0] * rng.randrange(row_cap)})
            model_admit(key, 72 * (2 + len(bucket.pairs[0])))
            cache.admit_bucket(network, key, bucket)
        elif roll < 0.6:  # admit or re-admit a live search
            spec = rng.choice(specs)
            search = PoICandidateSearch(network, spec, start)
            model_admit((start, spec.share_key), _estimate_bytes(search))
            cache.admit(network, start, spec, search)
        elif roll < 0.8:
            key = ("bucket", rng.randrange(8))
            model_touch(key)
            cache.lookup_bucket(network, key)
        elif roll < 0.97:
            spec = rng.choice(specs)
            model_touch((start, spec.share_key))
            cache.lookup(network, start, spec)
        else:
            order.clear()
            sizes.clear()
            cache.clear()
        assert list(cache._entries) == order
        assert cache.total_bytes == sum(sizes.values())
        assert cache.total_bytes == sum(
            entry.size for entry in cache._entries.values()
        )
        assert cache.stats.evictions == evictions
    assert evictions > 0


def test_warm_engine_hits_cache_and_answers_identically():
    network, forest, rng = random_instance(51)
    picked = pick_query(network, forest, rng, 3)
    assert picked is not None
    start, cats = picked
    cold = SkySREngine(network, forest)
    expected = cold.query(start, cats)

    cache = DistanceCache(max_entries=64)
    warm = SkySREngine(network, forest, distance_cache=cache)
    first = warm.query(start, cats)
    second = warm.query(start, cats)
    assert score_set(first.routes) == score_set(expected.routes)
    assert score_set(second.routes) == score_set(expected.routes)
    if cache.stats.admissions:  # pops were needed → the second run reuses
        assert cache.stats.hits > 0


def test_service_wires_a_default_cache():
    service = SkySRService(mini_city())
    cache = service.engine.distance_cache
    assert isinstance(cache, DistanceCache)
    assert cache.max_entries == SkySRService.DEFAULT_CACHE_ENTRIES
    assert cache.max_bytes == SkySRService.DEFAULT_CACHE_BYTES

    custom = DistanceCache(max_entries=3)
    tuned = SkySRService(mini_city(), distance_cache=custom)
    assert tuned.engine.distance_cache is custom
