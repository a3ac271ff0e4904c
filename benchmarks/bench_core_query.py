"""Core-query hot path — CSR vs ALT vs CH vs warm caches.

The hardware-bound rework (:mod:`repro.graph.csr`,
:mod:`repro.graph.landmarks`, :mod:`repro.graph.contraction`,
:mod:`repro.core.distcache`) only earns its keep if the end-to-end
query gets faster without changing a single answer.  This benchmark
measures both and emits the machine-readable
``BENCH_core_query.json`` artifact at the repo root:

* **scenarios** — the paper's figure-3 shape (tokyo, ``|Sq| = 3``) and
  figure-4 shape (tokyo, ``|Sq| = 5``);
* **variants** — ``csr`` (the flat kernels alone), ``csr_alt`` (flat
  kernels + landmark lower bounds), ``warm`` (``csr_alt`` behind a shared
  :class:`~repro.core.distcache.DistanceCache`, timed on the second
  pass over the workload), ``ch`` (``csr_alt`` plus contraction-
  hierarchy leg kernels, bucket-cold per query), ``ch_warm`` (``ch``
  behind a shared cache, so CH target buckets persist across queries);
* per scenario/variant: p50/p95 query latency and mean queue pops,
  plus the ``ch``/``csr_alt`` p50 ratio and cache hit counters (search
  and CH-bucket traffic separately).

Exactness is asserted inline against ``csr``: ``csr_alt`` and ``warm``
must return the same routes with the same scores (ALT only sharpens
admissible bounds; the shared cache only skips work); the CH variants
must return the same routes with scores equal after rounding to nine
decimals — CH sums associate differently from left-to-right search
sums, so float answers may differ by ULPs (integer-weight graphs are
covered bit for bit by ``tests/test_contraction.py``).

One-off preprocessing (landmark tables, CH construction) runs outside
the timed region and is reported separately in the artifact's
``config`` block, never folded into a latency.

A committed baseline of the same file is the regression guard: the
current ``csr_alt``, ``ch``, and ``ch_warm`` p95 on the figure-3
scenario must stay within 2x their committed values (with an absolute
floor so CI jitter on sub-millisecond queries cannot flake the build).
Baselines are read *before* the artifact is rewritten, through
:func:`benchmarks.baseline.load_baseline` — a missing baseline is
logged loudly (and fails under ``REPRO_BENCH_CHECK=1``), never
silently skipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import mean
from time import perf_counter

from benchmarks.baseline import load_baseline
from repro.core.distcache import DistanceCache
from repro.core.engine import SkySREngine
from repro.core.options import BSSROptions
from repro.datasets.workloads import generate_workload
from repro.graph.contraction import contraction_for
from repro.graph.landmarks import landmarks_for

#: timed repetitions per query (latencies pool across the workload),
#: after one untimed warmup pass per variant.  Within a repetition the
#: variants run back to back ("paired"): CPU frequency drift then hits
#: every variant alike instead of skewing whichever block ran while the
#: machine was busy, which keeps the p50 ratio stable across runs.
REPEATS = 15

VARIANTS = ("csr", "csr_alt", "warm", "ch", "ch_warm")
#: variants whose figure-3 p95 is guarded against the committed artifact
GUARDED_VARIANTS = ("csr_alt", "ch", "ch_warm")
#: regression guard: each guarded p95 (figure3) may be at most 2x the
#: committed one, with an absolute floor (seconds) against jitter
P95_RATIO_LIMIT = 2.0
P95_FLOOR_S = 0.05

SCENARIOS = [("figure3", 3), ("figure4", 5)]

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_core_query.json"


def _quantile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _run_scenario(tokyo, workload, alt_options, ch_options):
    """Time every variant on every query, paired per repetition.

    Returns ``(latencies, pops, answers, cache, ch_cache)`` — the first
    three dicts keyed by variant label.  One untimed pass per variant
    runs first (it also fills the warm variants' shared caches), so the
    timed passes measure steady state rather than first-ever-query
    costs.  ``ch`` runs cache-free — every query rebuilds its target
    buckets — while ``ch_warm`` keeps them in its own shared
    :class:`DistanceCache`, so the gap between the two is exactly the
    downward-sweep work the bucket cache saves.
    """
    cache = DistanceCache(max_entries=512, max_bytes=64 * 2**20)
    ch_cache = DistanceCache(max_entries=512, max_bytes=64 * 2**20)
    engines = {
        "csr": (SkySREngine(tokyo.network, tokyo.forest), None),
        "csr_alt": (SkySREngine(tokyo.network, tokyo.forest), alt_options),
        "warm": (
            SkySREngine(
                tokyo.network,
                tokyo.forest,
                options=alt_options,
                distance_cache=cache,
            ),
            alt_options,
        ),
        "ch": (SkySREngine(tokyo.network, tokyo.forest), ch_options),
        "ch_warm": (
            SkySREngine(
                tokyo.network,
                tokyo.forest,
                options=ch_options,
                distance_cache=ch_cache,
            ),
            ch_options,
        ),
    }

    def call(label, query):
        engine, options = engines[label]
        return engine.query(
            query.start, list(query.categories), options=options
        )

    for label in VARIANTS:
        for query in workload:
            call(label, query)

    latencies = {label: [] for label in VARIANTS}
    pops = {label: [] for label in VARIANTS}
    answers = {label: [] for label in VARIANTS}
    for query in workload:
        last = {}
        for _ in range(REPEATS):
            for label in VARIANTS:
                started = perf_counter()
                last[label] = call(label, query)
                latencies[label].append(perf_counter() - started)
        for label in VARIANTS:
            pops[label].append(last[label].stats.routes_expanded)
            answers[label].append(
                sorted(r.scores() for r in last[label].routes)
            )
    return latencies, pops, answers, cache, ch_cache


def _rounded(per_query_answers):
    """Scores rounded to 9 decimals — the CH-vs-search comparison grain
    (CH sums associate differently, so float answers may differ by ULPs).
    """
    return [
        [tuple(round(x, 9) for x in scores) for scores in query_answers]
        for query_answers in per_query_answers
    ]


def test_core_query_artifact(benchmark, bench_config, tokyo, capsys):
    # read BEFORE overwriting; missing baselines are loud, never silent
    baselines = {
        label: load_baseline(ARTIFACT, f"scenarios.figure3.{label}.p95_s")
        for label in GUARDED_VARIANTS
    }

    alt_options = BSSROptions(use_landmarks=True)
    ch_options = alt_options.but(use_contraction=True)

    # landmark tables and the contraction hierarchy are memoized on the
    # network; build both outside the timed region and report the
    # one-off costs separately
    started = perf_counter()
    landmarks_for(tokyo.network)
    landmark_build_s = perf_counter() - started
    ch = contraction_for(tokyo.network)
    ch_preprocess_s = ch.stats.preprocess_s

    scenarios: dict[str, dict] = {}
    for name, size in SCENARIOS:
        workload = generate_workload(
            tokyo, size, bench_config.queries_per_cell, seed=bench_config.seed
        )
        variants: dict[str, dict] = {}
        latencies, pops, answers, cache, ch_cache = _run_scenario(
            tokyo, workload, alt_options, ch_options
        )

        # Exactness: ALT and the shared cache may skip work but never
        # change an answer; the CH variants match at the 9-decimal grain
        # (see module doc).
        assert answers["csr_alt"] == answers["csr"]
        assert answers["warm"] == answers["csr"]
        assert _rounded(answers["ch"]) == _rounded(answers["csr"])
        assert _rounded(answers["ch_warm"]) == _rounded(answers["csr"])

        for label in VARIANTS:
            variants[label] = {
                "p50_s": _quantile(latencies[label], 0.50),
                "p95_s": _quantile(latencies[label], 0.95),
                "pops_mean": mean(pops[label]),
                "samples": len(latencies[label]),
            }
        variants["ch_vs_csr_alt_p50"] = (
            variants["ch"]["p50_s"] / variants["csr_alt"]["p50_s"]
        )
        variants["cache"] = cache.stats.as_dict()
        variants["ch_cache"] = ch_cache.stats.as_dict()
        scenarios[name] = variants

    # time one representative csr_alt query under pytest-benchmark too
    sample = generate_workload(tokyo, 3, 1, seed=bench_config.seed)[0]
    bench_engine = SkySREngine(tokyo.network, tokyo.forest)
    benchmark.pedantic(
        lambda: bench_engine.query(
            sample.start, list(sample.categories), options=alt_options
        ),
        rounds=3,
        iterations=1,
    )

    artifact = {
        "benchmark": "core_query",
        "config": {
            "scale": bench_config.scale,
            "queries_per_scenario": bench_config.queries_per_cell,
            "repeats": REPEATS,
            "landmark_build_s": landmark_build_s,
            "ch_preprocess_s": ch_preprocess_s,
            "ch_shortcuts_added": ch.stats.shortcuts_added,
        },
        "scenarios": scenarios,
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")

    fig3 = scenarios["figure3"]
    with capsys.disabled():
        print()
        for name, variants in scenarios.items():
            print(
                f"core query [{name}]: "
                + "  ".join(
                    f"{label} p50={variants[label]['p50_s'] * 1e3:.2f}ms "
                    f"pops={variants[label]['pops_mean']:.0f}"
                    for label in VARIANTS
                )
            )
        print(
            f"core query: ch/csr_alt p50 ratio "
            f"{fig3['ch_vs_csr_alt_p50']:.2f} on figure3, "
            f"warm hit rate {fig3['cache']['hit_rate']:.2f}, "
            f"ch preprocess {ch_preprocess_s * 1e3:.0f}ms "
            f"-> {ARTIFACT.name}"
        )

    # The warm passes must actually have hit their shared caches —
    # searches for ``warm``, CH target buckets for ``ch_warm``.
    assert fig3["cache"]["hits"] > 0
    assert fig3["ch_cache"]["bucket_hits"] > 0

    # Regression guard against the committed artifact.
    for label, baseline_p95 in baselines.items():
        if baseline_p95 is None:
            continue
        p95 = fig3[label]["p95_s"]
        limit = max(P95_RATIO_LIMIT * baseline_p95, P95_FLOOR_S)
        assert p95 <= limit, (
            f"{label} p95 regressed: {p95:.4f}s > limit {limit:.4f}s "
            f"(committed baseline {baseline_p95:.4f}s)"
        )
