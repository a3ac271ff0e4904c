#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload plan_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (host-normalised; raw wall
figures beside them for information).  ``--trace 1`` runs the same
stream twice, untraced and then with the span recorder of
``tracing.py`` installed, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from reference import Reference, factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: in-process cold starts per run; setup_s is their median
COLD_STARTS = 11


@dataclass
class ColdStart:
    client: object
    load_raw_s: float
    load_s: float
    setup_raw_s: float
    setup_s: float
    request: str


@dataclass
class Pass:
    """One timed pass over the op stream."""

    ops: list
    raw_ns: list[int] = field(default_factory=list)
    #: mean of the reference samples before and after each op
    ref_ns: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    rss_mb: float = 0.0

    @property
    def factors(self) -> list[float]:
        return [factor(ref) for ref in self.ref_ns]

    def norm_ms(self) -> list[float]:
        return [raw * f / 1e6 for raw, f in zip(self.raw_ns, self.factors)]

    def delta(self, name: str) -> int:
        return self.counters_after.get(name, 0) - self.counters_before.get(name, 0)


def write_dataset(scale: float, path: Path) -> None:
    """Generate the city in a child process (kept out of this one's RSS)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    subprocess.run(
        [sys.executable, str(HERE / "make_dataset.py"), "--scale", str(scale), "--out", str(path)],
        env=env,
        check=True,
        timeout=170,
    )


def cold_start(path, workload, warm, ref, tracer, number: int) -> ColdStart:
    """Load the city (untimed for setup_s), then time service construction
    plus one fixed warm-up request, which triggers every lazy index build."""
    from repro.datasets.paper_example import Dataset
    from repro.graph.io import load_dataset
    from repro.service.prototype import SkySRService

    gc.collect()
    request = f"setup-{number}"
    if tracer is not None:
        tracer.request = request
    r0 = ref.sample()
    t0 = perf_counter_ns()
    network, forest = load_dataset(path)
    t1 = perf_counter_ns()
    r1 = ref.sample()
    t2 = perf_counter_ns()
    service = SkySRService(Dataset(name=workload.name, network=network, forest=forest))
    client = workload.client(service)
    service.plan(list(warm.categories), start=warm.start)
    t3 = perf_counter_ns()
    r2 = ref.sample()
    if tracer is not None:
        tracer.request = None
    return ColdStart(
        client=client,
        load_raw_s=(t1 - t0) / 1e9,
        load_s=(t1 - t0) * factor((r0 + r1) / 2) / 1e9,
        setup_raw_s=(t3 - t2) / 1e9,
        setup_s=(t3 - t2) * factor((r1 + r2) / 2) / 1e9,
        request=request,
    )


def run_pass(workload, client, ref, tracer=None) -> Pass:
    """The closed loop: reference, op, reference, op, ... one client."""
    from workloads import Outcome

    workload.prepare(client)
    run = Pass(ops=workload.ops(client))
    run.counters_before = workload.counters(client)
    gc.collect()
    before = ref.sample()
    for op in run.ops:
        if tracer is not None:
            tracer.request = op.index
        t0 = perf_counter_ns()
        try:
            reply = op.call()
            error = ""
        except Exception as exc:  # a failed request is counted, never fatal
            reply = None
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter_ns()
        if tracer is not None:
            tracer.request = None
        if not error:
            try:
                outcome = workload.digest(op, reply)
            except (KeyError, TypeError, AttributeError) as exc:
                outcome = Outcome(ok=False, error=f"malformed reply: {exc!r}")
        else:
            outcome = Outcome(ok=False, error=error)
        after = ref.sample()
        run.raw_ns.append(t1 - t0)
        run.ref_ns.append((before + after) / 2)
        run.outcomes.append(outcome)
        before = after
    run.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.counters_after = workload.counters(client)
    return run


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b) (Lentz's continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 500):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return math.exp(log_front) * frac / a


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A beta-weighted mean of all order statistics.  On a heavy-tailed
    sample it moves far less between runs than the single order
    statistic nearest ``q``, whose neighbours can lie 20% apart.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(workload, run: Pass, starts: list[ColdStart]) -> tuple[dict, dict]:
    norm = run.norm_ms()
    raw = [ns / 1e6 for ns in run.raw_ns]
    lat = [v for v, op in zip(norm, run.ops) if op.kind == workload.latency_kind]
    lat_raw = [v for v, op in zip(raw, run.ops) if op.kind == workload.latency_kind]
    metrics = {
        "throughput_ops_s": (len(norm) / (sum(norm) / 1e3), "1/s"),
        "latency_p50_ms": (quantile(lat, 0.5), "ms"),
        "latency_p90_ms": (quantile(lat, 0.9), "ms"),
        "rss_peak_mb": (run.rss_mb, "MB"),
        "setup_s": (quantile([s.setup_s for s in starts], 0.5), "s"),
    }
    raw_metrics = {
        "throughput_ops_s": len(raw) / (sum(raw) / 1e3),
        "latency_p50_ms": quantile(lat_raw, 0.5),
        "latency_p90_ms": quantile(lat_raw, 0.9),
        "setup_s": quantile([s.setup_raw_s for s in starts], 0.5),
        "latency_samples": len(lat),
    }
    return metrics, raw_metrics


class LayerCounters:
    """Return-value hooks on traced functions (counts, never times)."""

    def __init__(self) -> None:
        self.accepted = 0
        self.offered = 0
        self.pages = 0
        self.resumed = 0
        self.pops = 0
        self.search: dict[str, int] = {}
        self.payload_bytes: list[int] = []
        self._last_size: dict[str, int] = {}

    def attach(self, tracer) -> None:
        tracer.after["SkybandSet.update"] = self.on_update
        tracer.after["PlanningSession.next_page"] = self.on_page
        tracer.before["SessionStore.put"] = lambda args: args[0].total_bytes
        tracer.after["SessionStore.put"] = self.on_put

    def on_update(self, args, accepted, token) -> None:
        self.offered += 1
        self.accepted += bool(accepted)

    def on_page(self, args, page, token) -> None:
        from workloads import SEARCH_COUNTERS

        stats = page.stats
        self.pages += 1
        self.resumed += bool(page.resumed)
        self.pops += stats.routes_expanded + stats.routes_pruned_on_pop
        for name in SEARCH_COUNTERS:
            self.search[name] = self.search.get(name, 0) + getattr(stats, name)

    def on_put(self, args, result, total_before) -> None:
        # The store is unbounded, so a put only adds its payload and
        # drops the session's previous one.
        store, session_id = args[0], args[1]
        size = store.total_bytes - total_before + self._last_size.get(session_id, 0)
        self._last_size[session_id] = size
        self.payload_bytes.append(size)


def per_layer(workload, untraced: Pass, traced: Pass, tracer, hooks: LayerCounters,
              starts: list[ColdStart]) -> dict:
    from workloads import SEARCH_COUNTERS

    n = len(traced.ops)
    pages = sum(1 for op in traced.ops if op.kind == "page")

    def self_ms(layer: str) -> float:
        return sum(
            tracer.layer_ns(op.index, layer) * f / 1e6
            for op, f in zip(traced.ops, traced.factors)
        )

    search = dict.fromkeys(SEARCH_COUNTERS, 0)
    for outcome in traced.outcomes:
        for name, value in outcome.counters.items():
            if name in search:
                search[name] += value
    for name, value in hooks.search.items():
        search[name] += value
    attempts = search["routes_enqueued"] + search["routes_pruned_on_insert"]
    pruned = search["routes_pruned_on_pop"] + search["routes_pruned_on_insert"]
    hits, misses = traced.delta("cache_hits"), traced.delta("cache_misses")
    store_hits, store_misses = traced.delta("store_hits"), traced.delta("store_misses")
    per_session = [o.counters["store_bytes_per_session"] for o in traced.outcomes
                   if "store_bytes_per_session" in o.counters]
    index_s = [
        tracer.layer_ns(s.request, "graph.index") * (s.setup_s / s.setup_raw_s) / 1e9
        for s in starts
    ]
    busy_untraced = sum(untraced.norm_ms())
    busy_traced = sum(traced.norm_ms())

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "core.search.self_ms_per_op": (self_ms("core.search") / n, "ms"),
        "core.search.settled_per_op": (search["settled"] / n, "count"),
        "core.search.relaxed_per_op": (search["relaxed"] / n, "count"),
        "core.nninit.self_ms_per_op": (self_ms("core.nninit") / n, "ms"),
        "core.bounds.self_ms_per_op": (self_ms("core.bounds") / n, "ms"),
        "core.bssr.self_ms_per_op": (self_ms("core.bssr") / n, "ms"),
        "core.bssr.routes_expanded_per_op": (search["routes_expanded"] / n, "count"),
        "core.bssr.pruned_share": (share(pruned, attempts), "share"),
        "core.dominance.self_ms_per_op": (self_ms("core.dominance") / n, "ms"),
        "core.dominance.accept_share": (share(hooks.accepted, hooks.offered), "share"),
        "core.distcache.hit_rate": (share(hits, hits + misses), "share"),
        "core.distcache.evictions_per_op": (traced.delta("cache_evictions") / n, "count"),
        "core.distcache.bytes_mb": (traced.counters_after.get("cache_bytes", 0) / 2**20, "MB"),
        "core.distcache.self_ms_per_op": (self_ms("core.distcache") / n, "ms"),
        "core.session.self_ms_per_page": (share(self_ms("core.session"), pages), "ms"),
        "core.session.pops_per_page": (share(hooks.pops, hooks.pages), "count"),
        "core.session.resumed_share": (share(hooks.resumed, hooks.pages), "share"),
        "core.serialize.encode_ms_per_op": (self_ms("core.serialize.encode") / n, "ms"),
        "core.serialize.decode_ms_per_op": (self_ms("core.serialize.decode") / n, "ms"),
        "core.serialize.payload_kb": (
            share(sum(hooks.payload_bytes), len(hooks.payload_bytes)) / 1024, "KB"),
        "store.put_ms_per_op": (self_ms("store.put") / n, "ms"),
        "store.get_ms_per_op": (self_ms("store.get") / n, "ms"),
        "store.bytes_per_session_kb": (share(sum(per_session), len(per_session)) / 1024, "KB"),
        "store.hit_rate": (share(store_hits, store_hits + store_misses), "share"),
        "service.self_ms_per_op": (self_ms("service") / n, "ms"),
        "graph.io.load_s": (statistics.median(s.load_s for s in starts), "s"),
        "graph.index_build_s": (statistics.median(index_s), "s"),
        "graph.contraction.bucket_misses_per_op": (traced.delta("bucket_misses") / n, "count"),
        "trace.overhead_share": (share(busy_traced, busy_untraced) - 1.0, "share"),
    }


#: byte counts that are not exact: each stored page carries its
#: SearchStats, wall-clock timings included, so payloads vary by a few bytes
INEXACT = frozenset({"store_bytes", "store_bytes_per_session"})


def exact(counters: dict) -> dict:
    return {name: value for name, value in counters.items() if name not in INEXACT}


def repeat_mismatches(first: Pass, second: Pass) -> list[str]:
    """Deterministic counters that differ between two passes of one stream."""
    problems = []
    names = set(exact(first.counters_after)) | set(exact(second.counters_after))
    for name in sorted(names):
        if first.delta(name) != second.delta(name):
            problems.append(f"{name}: {first.delta(name)} vs {second.delta(name)}")
    for op, a, b in zip(first.ops, first.outcomes, second.outcomes):
        if exact(a.counters) != exact(b.counters) or a.answer != b.answer:
            problems.append(f"op {op.index} ({op.kind}) counters or answer differ")
    return problems


def source_digest() -> str:
    """Digest of the program source and of this benchmark's own files."""
    digest = hashlib.sha256()
    for root in (SRC, HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def load(path: Path):
    from repro.datasets.paper_example import Dataset
    from repro.graph.io import load_dataset

    network, forest = load_dataset(path)
    return Dataset(name="city", network=network, forest=forest)


def report(args, starts, passes, failed, problems, ref, metrics, raw_metrics) -> None:
    """Human-readable lines before the JSON result (noise telemetry)."""
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for label, run in passes:
        norm = sum(run.norm_ms()) / 1e3
        raw = sum(run.raw_ns) / 1e9
        print(f"  {label} pass: {len(run.ops)} ops, busy {norm:.3f} s normalised, "
              f"{raw:.3f} s raw wall")
    print(f"  cold starts: {len(starts)}, setup raw s "
          + " ".join(f"{s.setup_raw_s:.4f}" for s in starts))
    for name, value in raw_metrics.items():
        print(f"  raw {name}: {value:.6g}")
    tele = ref.telemetry()
    print(f"  reference loop: {tele['samples']} samples, min {tele['min_ms']:.4f} ms, "
          f"median {tele['median_ms']:.4f} ms, max {tele['max_ms']:.4f} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    for index, reason in sorted(failed.items())[:10]:
        print(f"  FAILED op {index}: {reason}")
    for problem in problems[:10]:
        print(f"  COUNTERS DIFFER: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer, install
    from workloads import WORKLOADS, Oracle, warmup_query

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    ref = Reference()
    tracer = Tracer() if args.trace else None

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        path = Path(scratch) / "city.json"
        write_dataset(workload.scale, path)
        design = load(path)
        workload.design(design, args.seed, args.seconds)
        warm = warmup_query(design)
        del design

        # Cold starts (traced in a trace run, for the index-build spans);
        # the last one serves the untraced pass.
        starts: list[ColdStart] = []
        for number in range(COLD_STARTS):
            client = None  # one served city in memory at a time
            with install(tracer) if tracer is not None else nullcontext():
                start = cold_start(path, workload, warm, ref, tracer, number)
            client, start.client = start.client, None
            starts.append(start)
        untraced = run_pass(workload, client, ref)
        passes = [("untraced", untraced)]

        traced = None
        hooks = LayerCounters()
        if tracer is not None:
            client = None
            gc.collect()
            client = cold_start(path, workload, warm, ref, None, COLD_STARTS).client
            hooks.attach(tracer)
            with install(tracer):
                traced = run_pass(workload, client, ref, tracer)
            passes.append(("traced", traced))
        client = None
        gc.collect()

        oracle = Oracle(load(path), WORK / "oracle" / f"{args.workload}-{source_digest()}.json")
        failed: dict[int, str] = {}
        attempted = 0
        for _, run in passes:
            base = attempted
            attempted += len(run.ops)
            for op, outcome in zip(run.ops, run.outcomes):
                if not outcome.ok:
                    failed[base + op.index] = outcome.error
            for index, reason in workload.check(oracle, run.ops, run.outcomes).items():
                failed[base + index] = reason
        oracle.save()
        problems = repeat_mismatches(untraced, traced) if traced is not None else []

    if tracer is not None:
        metrics = per_layer(workload, untraced, traced, tracer, hooks, starts)
        tracer.write(WORK / "trace" / f"{args.workload}-seed{args.seed}.tsv.gz")
        _, raw_metrics = end_to_end(workload, untraced, starts)
    else:
        metrics, raw_metrics = end_to_end(workload, untraced, starts)
    report(args, starts, passes, failed, problems, ref, metrics, raw_metrics)
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
