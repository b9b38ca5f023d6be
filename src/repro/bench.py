"""``repro bench`` — the reproducible linking-performance baseline.

One command builds a seeded synthetic world, times every expensive stage
of the system, and writes a **schema-stable** ``BENCH_linking.json``:

* ``build``    — reachability-index and propagation-network construction,
  sequential and parallel;
* ``reachability`` — the single-source micro-benchmark: the one-pass
  followee-mask propagation vs. the per-target DAG-walk baseline it
  replaced (the Fig. 5 inner loop), with an output-equality check;
* ``single_mention`` — online ``link()`` latency percentiles plus the
  per-stage breakdown from :mod:`repro.perf`;
* ``single_mention_cached`` — the same workload replayed warm through a
  ``score_caching`` linker sharing the uncached linker's indexes, with an
  inline bit-identity check and the score-cache hit rates;
* ``batch``    — sharded batch-linking throughput per worker count, with
  speedups against the one-worker run measured on the same machine; rows
  whose worker count exceeds the schedulable CPU set carry
  ``"undersubscribed": true`` (their regressions are warnings, not gate
  failures — a 1-CPU runner cannot demonstrate scaling either way);
* ``snapshot`` — the fork-once / epoch-delta worker-update protocol:
  bytes shipped per refresh versus the re-pickling baseline (one full
  blob per refresh), with a post-refresh parity check;
* ``scale``    — streaming-world tiers (1k / 50k / 500k users by
  default): per tier, the backend ``LinkerConfig`` dispatch selects,
  its build time, **index bytes** (precise ``label_bytes``, not
  ``getsizeof`` underestimates), reachability-query percentiles, and —
  at small tiers — a compact-vs-dict bit-identity gate
  (docs/scaling.md);
* ``perf``     — the counter/timer snapshot (cache hit rates, BFS counts).

The workload is fully determined by ``seed``/``smoke``, so successive PRs
can diff numbers against this baseline on equal hardware.  Wall-clock
values are measurements, not constants: the schema validator checks shape
and types, never magnitudes.  Magnitude *comparisons* live in
:func:`compare_bench_documents`, the CI perf-regression gate: latency
regressions beyond the tolerance are errors, build-time and throughput
regressions are warnings (shared runners are too noisy to gate on them).
"""

from __future__ import annotations

import dataclasses
import json
import platform
import random
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro import parallelism
from repro.cache import hit_rate_names
from repro.config import LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import SocialTemporalLinker
from repro.core.parallel import ParallelBatchLinker
from repro.core.recency import RecencyPropagationNetwork
from repro.eval.context import build_experiment
from repro.graph.compact_labels import build_compact_two_hop_cover
from repro.graph.dispatch import build_reachability_index
from repro.graph.generators import (
    StreamingWorldProfile,
    stream_tweet_events,
    streaming_world_graph,
)
from repro.graph.reachability import (
    weighted_reachability_from,
    weighted_reachability_from_per_target,
)
from repro.graph.transitive_closure import (
    build_transitive_closure_incremental,
    build_transitive_closure_parallel,
)
from repro.graph.two_hop import build_two_hop_cover
from repro.kb.builder import KBProfile
from repro.log import get_logger
from repro.perf import PERF, percentile
from repro.stream.generator import StreamProfile, SyntheticWorld
from repro.stream.profiles import quick_profiles

_log = get_logger(__name__)

SCHEMA_VERSION = 4

#: section -> required keys; the CI smoke job and the tests validate every
#: emitted document against this shape.
_REQUIRED_SECTIONS: Dict[str, Tuple[str, ...]] = {
    "meta": (
        "schema_version",
        "tool",
        "seed",
        "smoke",
        "workers_measured",
        "tiers_measured",
    ),
    "environment": ("python", "platform", "cpu_count", "start_method"),
    "world": ("users", "tweets", "entities", "graph_edges", "test_mentions"),
    "build": (
        "transitive_closure_s",
        "transitive_closure_parallel_s",
        "two_hop_s",
        "two_hop_parallel_s",
        "propagation_network_s",
        "closure_nonzero_entries",
        "two_hop_label_entries",
    ),
    "reachability": (
        "sources",
        "per_target_s",
        "one_pass_s",
        "speedup",
        "outputs_identical",
    ),
    "single_mention": ("mentions", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "stages"),
    "single_mention_cached": (
        "mentions",
        "mean_ms",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "uncached_mean_ms",
        "speedup_vs_uncached",
        "outputs_identical",
        "hit_rates",
    ),
    "batch": ("requests", "results"),
    "snapshot": (
        "workers",
        "refreshes",
        "full_blob_bytes",
        "delta_bytes_total",
        "delta_bytes_per_refresh",
        "reduction_x",
        "deltas",
        "resyncs",
        "outputs_identical",
    ),
    "scale": ("tiers",),
    "perf": ("counters", "cache_hit_rates", "timers"),
}

_BATCH_RESULT_KEYS = (
    "workers", "seconds", "throughput_rps", "speedup_vs_1", "undersubscribed"
)

_SCALE_TIER_KEYS = (
    "users",
    "factions",
    "edges",
    "tweets",
    "backend",
    "stream_s",
    "index_build_s",
    "index_bytes",
    "entries_per_node",
    "queries",
    "query_p50_us",
    "query_p99_us",
    "compact_build_s",
    "compact_bytes",
    "dict_cover_bytes",
    "outputs_identical",
    "memory_budget_bytes",
    "within_budget",
)


def validate_bench_document(doc: object) -> List[str]:
    """Schema check; returns a list of problems (empty when valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    for section, keys in _REQUIRED_SECTIONS.items():
        body = doc.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing or non-object section {section!r}")
            continue
        for key in keys:
            if key not in body:
                problems.append(f"{section}.{key} missing")
    meta = doc.get("meta")
    if isinstance(meta, dict) and meta.get("schema_version") != SCHEMA_VERSION:
        problems.append(
            f"meta.schema_version is {meta.get('schema_version')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    batch = doc.get("batch")
    if isinstance(batch, dict):
        results = batch.get("results")
        if not isinstance(results, list) or not results:
            problems.append("batch.results must be a non-empty list")
        else:
            for index, row in enumerate(results):
                if not isinstance(row, dict):
                    problems.append(f"batch.results[{index}] is not an object")
                    continue
                for key in _BATCH_RESULT_KEYS:
                    if key not in row:
                        problems.append(f"batch.results[{index}].{key} missing")
    scale = doc.get("scale")
    if isinstance(scale, dict):
        tiers = scale.get("tiers")
        if not isinstance(tiers, list) or not tiers:
            problems.append("scale.tiers must be a non-empty list")
        else:
            for index, row in enumerate(tiers):
                if not isinstance(row, dict):
                    problems.append(f"scale.tiers[{index}] is not an object")
                    continue
                for key in _SCALE_TIER_KEYS:
                    if key not in row:
                        problems.append(f"scale.tiers[{index}].{key} missing")
    return problems


#: Latency metrics gated as hard errors by :func:`compare_bench_documents`.
_GATED_LATENCIES: Tuple[Tuple[str, str], ...] = (
    ("single_mention", "p50_ms"),
    ("single_mention_cached", "p50_ms"),
)

#: Absolute slack added to the relative latency gate.  The cached p50
#: sits near 0.05 ms, where scheduler jitter alone moves a smoke sample
#: by tens of percent; a regression must clear *both* the relative
#: tolerance and this floor before it fails the gate.
_LATENCY_SLACK_MS = 0.05

#: Build-time keys compared warn-only (shared runners are too noisy).
_BUILD_TIME_KEYS: Tuple[str, ...] = (
    "transitive_closure_s",
    "transitive_closure_parallel_s",
    "two_hop_s",
    "two_hop_parallel_s",
    "propagation_network_s",
)

#: Minimum warm-cache speedup below which the comparison warns.
_MIN_CACHED_SPEEDUP = 2.0

#: Minimum bytes-per-refresh reduction of the epoch-delta snapshot
#: protocol versus re-pickling the full blob every refresh.
_MIN_SNAPSHOT_REDUCTION = 10.0


def compare_bench_documents(
    current: Dict, baseline: Dict, tolerance: float = 0.25
) -> Tuple[List[str], List[str]]:
    """Compare a fresh bench run against a committed baseline.

    Returns ``(errors, warnings)``.  Errors fail the CI perf-regression
    job: an invalid document, a workload mismatch (different seed/smoke —
    the numbers would not be comparable), a single-mention p50 regression
    beyond ``tolerance`` (relative), a cached run whose outputs were
    not bit-identical to the uncached oracle, a pool that diverged after
    delta refreshes, a *fully subscribed* multi-worker speedup falling
    more than ``tolerance`` below the baseline's, a scale tier whose
    compact cover diverged from the dict-backed cover, or a tier whose
    index blew its memory budget.  Build-time regressions, lost batch
    throughput, undersubscribed speedup drops (the runner has fewer
    cores than workers — on either side), a warm-cache speedup below
    ``2.0``, and per-tier index-bytes and index-build-time growth are
    warnings only: they track real machines, not the code alone.
    """
    if not 0.0 < tolerance:
        raise ValueError("tolerance must be positive")
    errors: List[str] = []
    warnings: List[str] = []
    for name, doc in (("current", current), ("baseline", baseline)):
        problems = validate_bench_document(doc)
        if problems:
            errors.append(f"{name} document is invalid: {problems}")
    if errors:
        return errors, warnings
    for key in ("seed", "smoke"):
        if current["meta"][key] != baseline["meta"][key]:
            errors.append(
                f"workload mismatch: meta.{key} is {current['meta'][key]!r} "
                f"vs baseline {baseline['meta'][key]!r}"
            )
    if errors:
        return errors, warnings
    for section, metric in _GATED_LATENCIES:
        now = float(current[section][metric])
        then = float(baseline[section][metric])
        gate = then * (1.0 + tolerance) + _LATENCY_SLACK_MS
        if then > 0 and now > gate:
            errors.append(
                f"{section}.{metric} regressed {now / then:.2f}x "
                f"({then} -> {now} ms, tolerance {tolerance:.0%} "
                f"+ {_LATENCY_SLACK_MS} ms slack)"
            )
    if not current["single_mention_cached"]["outputs_identical"]:
        errors.append(
            "single_mention_cached.outputs_identical is false: the cached "
            "path diverged from the uncached oracle"
        )
    if not current["snapshot"]["outputs_identical"]:
        errors.append(
            "snapshot.outputs_identical is false: the worker pool diverged "
            "from the parent linker after epoch-delta refreshes"
        )
    for key in _BUILD_TIME_KEYS:
        now = float(current["build"][key])
        then = float(baseline["build"][key])
        if then > 0 and now > then * (1.0 + tolerance):
            warnings.append(
                f"build.{key} regressed {now / then:.2f}x ({then}s -> {now}s)"
            )
    speedup = float(current["single_mention_cached"]["speedup_vs_uncached"])
    if speedup < _MIN_CACHED_SPEEDUP:
        warnings.append(
            f"warm-cache speedup {speedup}x is below the "
            f"{_MIN_CACHED_SPEEDUP}x target"
        )
    then_rows = {
        row["workers"]: row for row in baseline["batch"]["results"]
    }
    for row in current["batch"]["results"]:
        before = then_rows.get(row["workers"])
        if before is None:
            continue
        now_rps = float(row["throughput_rps"])
        then_rps = float(before["throughput_rps"])
        if then_rps > 0 and now_rps < then_rps * (1.0 - tolerance):
            warnings.append(
                f"batch throughput at workers={row['workers']} dropped "
                f"{then_rps} -> {now_rps} rps"
            )
        if int(row["workers"]) > 1:
            now_speedup = float(row["speedup_vs_1"])
            then_speedup = float(before["speedup_vs_1"])
            undersubscribed = bool(row.get("undersubscribed")) or bool(
                before.get("undersubscribed")
            )
            if then_speedup > 0 and now_speedup < then_speedup * (1.0 - tolerance):
                message = (
                    f"batch speedup at workers={row['workers']} dropped "
                    f"{then_speedup}x -> {now_speedup}x"
                )
                if undersubscribed:
                    warnings.append(message + " (undersubscribed: warning only)")
                else:
                    errors.append(message)
    reduction = float(current["snapshot"]["reduction_x"])
    if current["snapshot"]["deltas"] and reduction < _MIN_SNAPSHOT_REDUCTION:
        warnings.append(
            f"snapshot delta reduction {reduction}x is below the "
            f"{_MIN_SNAPSHOT_REDUCTION}x target"
        )
    baseline_tiers = {
        row["users"]: row for row in baseline["scale"]["tiers"]
    }
    for row in current["scale"]["tiers"]:
        users = row["users"]
        if row["outputs_identical"] is False:
            errors.append(
                f"scale tier {users}: compact cover diverged from the "
                "dict-backed cover (outputs_identical is false)"
            )
        if row["within_budget"] is False:
            errors.append(
                f"scale tier {users}: index_bytes {row['index_bytes']} "
                f"exceeded the {row['memory_budget_bytes']}-byte budget"
            )
        before = baseline_tiers.get(users)
        if before is None:
            continue
        now_bytes = float(row["index_bytes"])
        then_bytes = float(before["index_bytes"])
        if then_bytes > 0 and now_bytes > then_bytes * (1.0 + tolerance):
            warnings.append(
                f"scale tier {users}: index_bytes grew "
                f"{now_bytes / then_bytes:.2f}x ({then_bytes} -> {now_bytes})"
            )
        now_s = float(row["index_build_s"])
        then_s = float(before["index_build_s"])
        if then_s > 0 and now_s > then_s * (1.0 + tolerance):
            warnings.append(
                f"scale tier {users}: index_build_s regressed "
                f"{now_s / then_s:.2f}x ({then_s}s -> {now_s}s)"
            )
    return errors, warnings


# ---------------------------------------------------------------------- #
# workload assembly
# ---------------------------------------------------------------------- #
def _bench_world(seed: int, smoke: bool) -> SyntheticWorld:
    if smoke:
        kb_profile, stream_profile = quick_profiles(seed)
        return SyntheticWorld.generate(
            kb_profile=kb_profile, stream_profile=stream_profile
        )
    return SyntheticWorld.generate(
        kb_profile=KBProfile(seed=seed),
        stream_profile=StreamProfile(seed=seed),
    )


def _reachability_bench(world: SyntheticWorld, max_hops: int, smoke: bool) -> Dict:
    graph = world.graph
    count = 20 if smoke else 80
    # the busiest sources are the expensive (and the realistic) ones: the
    # linker queries reachability *from* active users
    sources = sorted(
        graph.nodes(), key=graph.out_degree, reverse=True
    )[:count]
    start = time.perf_counter()
    baseline = [
        weighted_reachability_from_per_target(graph, s, max_hops) for s in sources
    ]
    per_target_s = time.perf_counter() - start
    start = time.perf_counter()
    one_pass = [weighted_reachability_from(graph, s, max_hops) for s in sources]
    one_pass_s = time.perf_counter() - start
    identical = all(
        set(a) == set(b)
        and all(abs(a[t] - b[t]) < 1e-12 for t in a)
        for a, b in zip(baseline, one_pass)
    )
    return {
        "sources": len(sources),
        "per_target_s": round(per_target_s, 6),
        "one_pass_s": round(one_pass_s, 6),
        "speedup": round(per_target_s / one_pass_s, 3) if one_pass_s > 0 else 0.0,
        "outputs_identical": identical,
    }


def _single_mention_bench(linker, requests: Sequence[LinkRequest]) -> Dict:
    latencies: List[float] = []
    for request in requests:
        start = time.perf_counter()
        linker.link(request.surface, request.user, request.now)
        latencies.append(time.perf_counter() - start)
    stages = {
        name: {k: round(v, 9) for k, v in PERF.timer_stats(name).items()}
        for name in (
            "link.candidates",
            "link.interest",
            "link.recency",
            "link.popularity",
            "link.combine",
        )
    }
    return {
        "mentions": len(latencies),
        "mean_ms": round(sum(latencies) / len(latencies) * 1e3, 6) if latencies else 0.0,
        "p50_ms": round(percentile(latencies, 50.0) * 1e3, 6),
        "p95_ms": round(percentile(latencies, 95.0) * 1e3, 6),
        "p99_ms": round(percentile(latencies, 99.0) * 1e3, 6),
        "stages": stages,
    }


def _cached_single_mention_bench(context, requests: Sequence[LinkRequest]) -> Dict:
    """Warm-cache replay vs. the uncached oracle on identical state.

    Both linkers share every heavy structure (ckb, graph, closure,
    propagation network), differing only in ``score_caching``.  The first
    pass warms the caches — the steady state a long-running stream linker
    operates in — and the measured pass times both variants request by
    request while checking their outputs are bit-identical.
    """
    uncached = SocialTemporalLinker(
        context.ckb,
        context.world.graph,
        config=context.config,
        reachability=context.closure,
        propagation_network=context.propagation_network,
    )
    cached = SocialTemporalLinker(
        context.ckb,
        context.world.graph,
        config=dataclasses.replace(context.config, score_caching=True),
        reachability=context.closure,
        propagation_network=context.propagation_network,
    )
    for request in requests:  # warm pass
        cached.link(request.surface, request.user, request.now)
    counter_names = [
        prefix + suffix
        for prefix in sorted(hit_rate_names())
        for suffix in (".hit", ".miss")
    ]
    before = {name: PERF.counter(name) for name in counter_names}
    cached_latencies: List[float] = []
    uncached_latencies: List[float] = []
    identical = True
    for request in requests:
        start = time.perf_counter()
        warm = cached.link(request.surface, request.user, request.now)
        cached_latencies.append(time.perf_counter() - start)
        start = time.perf_counter()
        cold = uncached.link(request.surface, request.user, request.now)
        uncached_latencies.append(time.perf_counter() - start)
        if warm.ranked != cold.ranked or warm.degradation != cold.degradation:
            identical = False
    hit_rates: Dict[str, float] = {}
    for prefix in sorted(hit_rate_names()):
        hits = PERF.counter(prefix + ".hit") - before[prefix + ".hit"]
        misses = PERF.counter(prefix + ".miss") - before[prefix + ".miss"]
        total = hits + misses
        hit_rates[prefix.rsplit(".", 1)[-1]] = (
            round(hits / total, 6) if total else 0.0
        )
    cached_mean = (
        sum(cached_latencies) / len(cached_latencies) if cached_latencies else 0.0
    )
    uncached_mean = (
        sum(uncached_latencies) / len(uncached_latencies)
        if uncached_latencies
        else 0.0
    )
    return {
        "mentions": len(cached_latencies),
        "mean_ms": round(cached_mean * 1e3, 6),
        "p50_ms": round(percentile(cached_latencies, 50.0) * 1e3, 6),
        "p95_ms": round(percentile(cached_latencies, 95.0) * 1e3, 6),
        "p99_ms": round(percentile(cached_latencies, 99.0) * 1e3, 6),
        "uncached_mean_ms": round(uncached_mean * 1e3, 6),
        "speedup_vs_uncached": round(uncached_mean / cached_mean, 3)
        if cached_mean > 0
        else 0.0,
        "outputs_identical": identical,
        "hit_rates": hit_rates,
    }


def _batch_bench(
    linker, requests: Sequence[LinkRequest], workers_list: Sequence[int]
) -> Dict:
    results: List[Dict] = []
    base_seconds: Optional[float] = None
    schedulable = parallelism.resolve_workers(None)
    for workers in workers_list:
        with ParallelBatchLinker(linker, workers=workers, min_pool_batch=1) as parallel:
            # warm-up pass pays fork + per-worker cache warm-up once, the
            # measured pass shows steady-state throughput (the streaming
            # regime the batch path exists for)
            parallel.link_batch(requests[: max(1, len(requests) // 10)])
            start = time.perf_counter()
            parallel.link_batch(requests)
            seconds = time.perf_counter() - start
        if workers == 1:
            base_seconds = seconds
        results.append(
            {
                "workers": workers,
                "seconds": round(seconds, 6),
                "throughput_rps": round(len(requests) / seconds, 3)
                if seconds > 0
                else 0.0,
                "speedup_vs_1": round(base_seconds / seconds, 3)
                if base_seconds and seconds > 0
                else 1.0,
                # a pool wider than the schedulable CPU set cannot show a
                # real speedup; comparisons treat these rows as warn-only
                "undersubscribed": workers > schedulable,
            }
        )
    return {"requests": len(requests), "results": results}


def _snapshot_bench(linker, requests: Sequence[LinkRequest], smoke: bool) -> Dict:
    """Measure the epoch-delta snapshot protocol on a mutating linker.

    One full sync pays the blob; each subsequent refresh confirms a few
    links on the parent and ships the resulting delta.  ``reduction_x``
    is the acceptance metric: bytes shipped per refresh under the delta
    protocol versus the re-pickling baseline (which shipped the whole
    blob every refresh).  ``outputs_identical`` re-links a probe batch
    through the pool after all refreshes and compares against the
    parent's own batcher — the freshness *and* parity check in one.

    Runs last: it mutates the shared ckb via ``confirm_link``.
    """
    refreshes = 4 if smoke else 8
    probe = requests[: 32 if smoke else 64]
    counter_names = (
        "snapshot.bytes_full",
        "snapshot.bytes_delta",
        "snapshot.deltas",
        "snapshot.full_syncs",
        "pool.resync",
    )
    before = {name: PERF.counter(name) for name in counter_names}
    entities = sorted(linker.ckb.linked_entities())[:4]
    stamp = 0.0
    with ParallelBatchLinker(linker, workers=2, min_pool_batch=1) as parallel:
        parallel.link_batch(probe)  # the one full sync
        for _ in range(refreshes):
            for entity_id in entities:
                stamp += 1.0
                linker.confirm_link(entity_id, user=0, timestamp=stamp)
            parallel.refresh()
        linked = parallel.link_batch(probe)
    expected = MicroBatchLinker(linker).link_batch(probe)
    identical = all(
        a.ranked == b.ranked and a.degradation == b.degradation
        for a, b in zip(linked, expected)
    )
    moved = {name: PERF.counter(name) - before[name] for name in counter_names}
    full_syncs = max(1, moved["snapshot.full_syncs"])
    full_blob_bytes = moved["snapshot.bytes_full"] // full_syncs
    deltas = moved["snapshot.deltas"]
    delta_bytes_per_refresh = (
        moved["snapshot.bytes_delta"] / deltas if deltas else 0.0
    )
    return {
        "workers": 2,
        "refreshes": refreshes,
        "full_blob_bytes": full_blob_bytes,
        "delta_bytes_total": moved["snapshot.bytes_delta"],
        "delta_bytes_per_refresh": round(delta_bytes_per_refresh, 3),
        "reduction_x": round(full_blob_bytes / delta_bytes_per_refresh, 3)
        if delta_bytes_per_refresh > 0
        else 0.0,
        "deltas": deltas,
        "resyncs": moved["pool.resync"],
        "outputs_identical": identical,
    }


# ---------------------------------------------------------------------- #
# scale tiers
# ---------------------------------------------------------------------- #

#: Node count up to which a tier *additionally* builds the dict-backed
#: cover and bit-compares it against the compact cover (the identity
#: gate).  Above this, the dict cover's build cost and RAM defeat the
#: point of the tier run; identity at scale is covered by the randomized
#: property suite instead.
_SCALE_IDENTITY_CAP = 2_000

#: Per-index memory budget applied to tier runs (docs/scaling.md): the
#: compact cover must answer the full query API within this many bytes,
#: pruning followee pools (never the distance backbone) to fit.  1 GiB
#: clears the 500k-tier distance backbone (~0.5 GiB) while still forcing
#: pool pruning once labels outgrow it.
_SCALE_BUDGET_BYTES = 2**30

#: Reachability queries sampled per tier for the latency percentiles.
_SCALE_QUERY_COUNT = 2_000


def scale_tier_profile(users: int, seed: int) -> StreamingWorldProfile:
    """The hub/faction streaming world a tier benchmarks.

    Factions scale with the user count so the faction size — the main
    driver of 2-hop label width in this topology — stays bounded instead
    of growing into a |faction|² mesh.
    """
    return StreamingWorldProfile(
        num_users=users,
        num_factions=max(8, users // 125),
        seed=seed,
    )


def _scale_tier_bench(users: int, seed: int, config: LinkerConfig) -> Dict:
    """Benchmark one streaming-world tier end to end.

    Streams the world in (never materializing the full edge list),
    builds whatever backend ``config`` dispatch selects for the size,
    and reports build seconds, **precise** index bytes, and query
    percentiles.  At small tiers the compact and dict-backed covers are
    both built and bit-compared — the identity gate the CI ``bench-scale``
    job enforces.
    """
    profile = scale_tier_profile(users, seed)
    tier_config = dataclasses.replace(
        config, index_memory_budget_bytes=_SCALE_BUDGET_BYTES
    )
    start = time.perf_counter()
    graph = streaming_world_graph(profile)
    tweets = sum(1 for _ in stream_tweet_events(profile))
    stream_s = time.perf_counter() - start

    start = time.perf_counter()
    index = build_reachability_index(graph, tier_config)
    index_build_s = time.perf_counter() - start
    backend = tier_config.select_index_backend(graph.num_nodes)
    index_bytes = index.size_bytes()
    entries = (
        index.num_label_entries()
        if hasattr(index, "num_label_entries")
        else index.nonzero_entries()
    )

    rng = random.Random(seed * 7_919 + users)
    pairs = [
        (rng.randrange(users), rng.randrange(users))
        for _ in range(_SCALE_QUERY_COUNT)
    ] if users else []
    latencies: List[float] = []
    for source, target in pairs:
        begin = time.perf_counter()
        index.reachability(source, target)
        latencies.append(time.perf_counter() - begin)

    compact_build_s: Optional[float] = None
    compact_bytes: Optional[int] = None
    dict_cover_bytes: Optional[int] = None
    identical: Optional[bool] = None
    if users <= _SCALE_IDENTITY_CAP:
        start = time.perf_counter()
        compact = build_compact_two_hop_cover(
            graph,
            max_hops=tier_config.max_hops,
            memory_budget_bytes=_SCALE_BUDGET_BYTES,
        )
        compact_build_s = round(time.perf_counter() - start, 6)
        dict_cover = build_two_hop_cover(graph, max_hops=tier_config.max_hops)
        compact_bytes = compact.label_bytes()
        dict_cover_bytes = dict_cover.label_bytes()
        identical = all(
            compact.distance(s, t) == dict_cover.distance(s, t)
            and compact.query(s, t) == dict_cover.query(s, t)
            and compact.reachability(s, t, exact_followees=False)
            == dict_cover.reachability(s, t, exact_followees=False)
            and compact.reachability(s, t, exact_followees=True)
            == dict_cover.reachability(s, t, exact_followees=True)
            for s, t in pairs
        )
    elif backend == "compact":
        compact_build_s = round(index_build_s, 6)
        compact_bytes = index_bytes

    # build phases (landmark BFS incl. pruning checks, flatten) exist only
    # for the compact cover; other backends report null
    bfs_s = flatten_s = None
    if backend == "compact":
        phases = index.stats()
        bfs_s = round(phases["bfs_s"], 6)
        flatten_s = round(phases["flatten_s"], 6)

    budget = tier_config.index_memory_budget_bytes
    within_budget = True
    if budget is not None and backend in ("compact", "two-hop"):
        within_budget = index_bytes <= budget
    return {
        "users": users,
        "factions": profile.num_factions,
        "edges": graph.num_edges,
        "tweets": tweets,
        "backend": backend,
        "stream_s": round(stream_s, 6),
        "index_build_s": round(index_build_s, 6),
        "index_bytes": index_bytes,
        "entries_per_node": round(entries / users, 3) if users else 0.0,
        "queries": len(latencies),
        "query_p50_us": round(percentile(latencies, 50.0) * 1e6, 3),
        "query_p99_us": round(percentile(latencies, 99.0) * 1e6, 3),
        "compact_build_s": compact_build_s,
        "compact_bytes": compact_bytes,
        "dict_cover_bytes": dict_cover_bytes,
        "outputs_identical": identical,
        "memory_budget_bytes": budget,
        "within_budget": within_budget,
        "index_bfs_s": bfs_s,
        "index_flatten_s": flatten_s,
    }


def _scale_bench(tiers: Sequence[int], seed: int, config: LinkerConfig) -> Dict:
    rows = []
    for users in tiers:
        _log.info("scale tier: %d users", users)
        rows.append(_scale_tier_bench(users, seed, config))
    return {"tiers": rows}


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def run_bench(
    seed: int = 11,
    smoke: bool = False,
    workers_list: Optional[Sequence[int]] = None,
    out: Optional[str] = "BENCH_linking.json",
    tiers: Optional[Sequence[int]] = None,
) -> Dict:
    """Run the full benchmark; returns (and optionally writes) the document.

    ``tiers`` selects the streaming-world scale tiers (user counts);
    ``None`` means ``(1000,)`` for smoke runs and ``(1000, 50000,
    500000)`` for full runs.
    """
    if workers_list is None:
        workers_list = (1, 2) if smoke else (1, 2, 4)
    if 1 not in workers_list:
        raise ValueError("workers_list must include 1 (the speedup baseline)")
    if tiers is None:
        tiers = (1_000,) if smoke else (1_000, 50_000, 500_000)
    if not tiers or any(t < 1 for t in tiers):
        raise ValueError("tiers must be a non-empty list of positive user counts")
    PERF.reset()
    PERF.enable()
    try:
        world = _bench_world(seed, smoke)
        context = build_experiment(world=world, complement_method="truth")
        config: LinkerConfig = context.config
        graph = world.graph

        build: Dict[str, object] = {}
        start = time.perf_counter()
        closure = build_transitive_closure_incremental(
            graph, max_hops=config.max_hops
        )
        build["transitive_closure_s"] = round(time.perf_counter() - start, 6)
        parallel_workers = max(workers_list)
        start = time.perf_counter()
        build_transitive_closure_parallel(
            graph, max_hops=config.max_hops, workers=parallel_workers
        )
        build["transitive_closure_parallel_s"] = round(
            time.perf_counter() - start, 6
        )
        start = time.perf_counter()
        cover = build_two_hop_cover(graph, max_hops=config.max_hops)
        build["two_hop_s"] = round(time.perf_counter() - start, 6)
        start = time.perf_counter()
        build_two_hop_cover(graph, max_hops=config.max_hops, workers=parallel_workers)
        build["two_hop_parallel_s"] = round(time.perf_counter() - start, 6)
        start = time.perf_counter()
        RecencyPropagationNetwork(
            world.kb,
            relatedness_threshold=config.relatedness_threshold,
            propagation_lambda=config.propagation_lambda,
            workers=parallel_workers,
        )
        build["propagation_network_s"] = round(time.perf_counter() - start, 6)
        build["closure_nonzero_entries"] = closure.nonzero_entries()
        build["two_hop_label_entries"] = cover.num_label_entries()

        reachability = _reachability_bench(world, config.max_hops, smoke)

        linker = context.social_temporal()._linker
        requests = [
            LinkRequest(surface=m.surface, user=t.user, now=t.timestamp)
            for t in context.test_dataset.tweets
            for m in t.mentions
        ]
        if smoke:
            requests = requests[:200]
        single_requests = requests[: 100 if smoke else 400]
        single = _single_mention_bench(linker, single_requests)
        single_cached = _cached_single_mention_bench(context, single_requests)
        batch = _batch_bench(linker, requests, workers_list)
        scale = _scale_bench(tiers, seed, config)
        snapshot = _snapshot_bench(linker, requests, smoke)

        document = {
            "meta": {
                "schema_version": SCHEMA_VERSION,
                "tool": "repro bench",
                "seed": seed,
                "smoke": smoke,
                "workers_measured": list(workers_list),
                "tiers_measured": list(tiers),
            },
            "environment": {
                "python": platform.python_version(),
                "platform": platform.system().lower(),
                "cpu_count": parallelism.resolve_workers(None),
                "start_method": parallelism.start_method(),
            },
            "world": {
                "users": world.num_users,
                "tweets": len(world.tweets),
                "entities": world.kb.num_entities,
                "graph_edges": graph.num_edges,
                "test_mentions": len(requests),
            },
            "build": build,
            "reachability": reachability,
            "single_mention": single,
            "single_mention_cached": single_cached,
            "batch": batch,
            "scale": scale,
            "snapshot": snapshot,
            "perf": PERF.snapshot(),
        }
    finally:
        PERF.disable()
    problems = validate_bench_document(document)
    if problems:  # pragma: no cover - guards future schema drift
        raise AssertionError(f"bench emitted an invalid document: {problems}")
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=False)
            handle.write("\n")
        _log.info("benchmark written to %s", out)
    return document
