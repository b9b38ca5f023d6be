"""Metric tables of the benchmark and the per-layer numbers a trace yields.

``BENCHMARK.json`` at the repository root lists the same names; the
self-tests check that the two agree.

Every workload reports every end-to-end metric.  Each one is defined on
the workload's own unit of work:

=================  ==========================  =======================  ==========================
metric             serve-ladder                stream-feedback          index-build
=================  ==========================  =======================  ==========================
setup_s            spawn to first 200 of       world generation, KB,    streaming world graph
                   ``repro serve``             closure, network         generation
rss_mib            peak RSS of the server      peak RSS, benchmark      peak RSS, benchmark
ok_ratio           succeeded / attempted requests, mentions or sampled queries (1 - fail ratio)
p50_ms             request latency at the      per-mention link time    reachability query time
                   25/s step from due time
tail_ms            closed-loop request         p99 of the same          p99 of the same
                   latency p95
throughput_per_s   closed-loop requests/s      mentions/s, closed loop  queries/s, closed loop
accuracy           served body equals the      top entity equals        query equals exact Eq. 4
                   in-process oracle's         ground truth
index_build_s      closure of the served       closure of the stream    compact 2-hop cover
                   world                       world
index_mib          size of that closure        size of that closure     ``size_bytes()`` of cover
=================  ==========================  =======================  ==========================

Times of computation (every in-process timing and the set-up of
``repro serve``) are scaled to the reference machine's speed by
:class:`common.SpeedTracker`, because shared machines drift in CPU speed
by a quarter within a minute; the reports print the raw times beside
them.  Socket latencies and request rates of serve-ladder are raw, as
measured: they include kernel timers that do not scale with CPU speed.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better, bound)
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "rss_mib": ("MiB", "lower", 0.15),
    "ok_ratio": ("ratio", "higher", 0.01),
    "p50_ms": ("ms", "lower", 0.24),
    "tail_ms": ("ms", "lower", 0.24),
    "throughput_per_s": ("1/s", "higher", 0.24),
    "accuracy": ("ratio", "higher", 0.24),
    "index_build_s": ("s", "lower", 0.24),
    "index_mib": ("MiB", "lower", 0.1),
}

#: name -> (unit, better); read from the traced run only.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "serve.server.transport_p50_ms": ("ms", "lower"),
    "serve.handlers.handle_p50_ms": ("ms", "lower"),
    "serve.handlers.handle_p99_ms": ("ms", "lower"),
    "serve.handlers.self_p50_ms": ("ms", "lower"),
    "serve.admission.admit_us": ("us", "lower"),
    "serve.admission.in_flight_max": ("count", "lower"),
    "serve.admission.shed": ("count", "lower"),
    "serve.tenants.try_acquire_us": ("us", "lower"),
    "serve.tenants.ratelimited": ("count", "lower"),
    "serve.client.late_p99_ms": ("ms", "lower"),
    "serve.client.wait_p50_ms": ("ms", "lower"),
    "serve.client.sent": ("count", "higher"),
    "serve.client.ok": ("count", "higher"),
    "serve.client.failed": ("count", "lower"),
    "serve.client.steps": ("count", "higher"),
    "serve.client.max_rps": ("1/s", "higher"),
    "serve.client.sat_rps": ("1/s", "higher"),
    "core.linker.link_p50_ms": ("ms", "lower"),
    "core.linker.link_p99_ms": ("ms", "lower"),
    "core.linker.self_p50_us": ("us", "lower"),
    "core.linker.degraded": ("count", "lower"),
    "core.linker.confirm_link_us": ("us", "lower"),
    "core.linker.influential_hit_ratio": ("ratio", "higher"),
    "core.candidates.candidates_us": ("us", "lower"),
    "core.candidates.per_mention": ("count", "lower"),
    "core.interest.normalized_interest_us": ("us", "lower"),
    "core.influence.top_influential_users_us": ("us", "lower"),
    "core.influence.calls": ("count", "lower"),
    "graph.transitive_closure.reachability_us": ("us", "lower"),
    "graph.transitive_closure.calls_per_mention": ("count", "lower"),
    "graph.transitive_closure.build_s": ("s", "lower"),
    "core.recency.propagated_recency_us": ("us", "lower"),
    "core.recency.propagate_us": ("us", "lower"),
    "core.recency.propagate_component_us": ("us", "lower"),
    "core.recency.propagate_component_calls": ("count", "lower"),
    "core.recency.network_build_s": ("s", "lower"),
    "core.popularity.popularity_scores_us": ("us", "lower"),
    "core.scoring.combine_scores_us": ("us", "lower"),
    "stream.ingest.push_us": ("us", "lower"),
    "stream.ingest.dead_lettered": ("count", "lower"),
    "kb.complemented.link_tweet_calls": ("count", "lower"),
    "graph.generators.streaming_world_graph_s": ("s", "lower"),
    "graph.compact_labels.build_s": ("s", "lower"),
    "graph.compact_labels.reachability_us": ("us", "lower"),
    "graph.compact_labels.entries_per_node": ("count", "lower"),
    "graph.compact_labels.label_bytes": ("bytes", "lower"),
    "graph.compact_labels.backbone_bytes": ("bytes", "lower"),
    "io.load_world_s": ("s", "lower"),
    "eval.context.build_experiment_s": ("s", "lower"),
    "serve.tenants.build_tenant_registry_s": ("s", "lower"),
    "serve.ready_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}


#: A layer summary: span name -> {"calls", "p50_us", "p99_us", "self_p50_us", "total_s"}.
Summary = Dict[str, Dict[str, float]]


def _get(summary: Summary, name: str, key: str) -> float:
    entry = summary.get(name)
    return float(entry[key]) if entry else 0.0


def linker_layers(ops: Summary, setup: Summary, counts: Dict[str, int]) -> Dict[str, float]:
    """Per-layer numbers of the linker stages, from spans under measured ops.

    ``ops`` summarizes spans under request or mention roots, ``setup``
    every span (set-up phases run once and have their own roots).
    """
    links = _get(ops, "core.linker.link", "calls")
    lookups = counts.get("core.influence.lookups", 0)
    misses = _get(ops, "core.influence.top_influential_users", "calls")
    candidate_calls = _get(ops, "core.candidates.candidates", "calls")
    return {
        "core.linker.link_p50_ms": _get(ops, "core.linker.link", "p50_us") / 1000.0,
        "core.linker.link_p99_ms": _get(ops, "core.linker.link", "p99_us") / 1000.0,
        "core.linker.self_p50_us": _get(ops, "core.linker.link", "self_p50_us"),
        "core.linker.degraded": float(counts.get("core.linker.degraded", 0)),
        "core.linker.confirm_link_us": _get(ops, "core.linker.confirm_link", "p50_us"),
        "core.linker.influential_hit_ratio": (lookups - misses) / lookups if lookups else 0.0,
        "core.candidates.candidates_us": _get(ops, "core.candidates.candidates", "p50_us"),
        "core.candidates.per_mention": (
            counts.get("core.candidates.returned", 0) / candidate_calls if candidate_calls else 0.0
        ),
        "core.interest.normalized_interest_us": _get(ops, "core.interest.normalized_interest", "p50_us"),
        "core.influence.top_influential_users_us": _get(ops, "core.influence.top_influential_users", "p50_us"),
        "core.influence.calls": misses,
        "graph.transitive_closure.reachability_us": _get(ops, "graph.transitive_closure.reachability", "p50_us"),
        "graph.transitive_closure.calls_per_mention": (
            _get(ops, "graph.transitive_closure.reachability", "calls") / links if links else 0.0
        ),
        "graph.transitive_closure.build_s": _get(setup, "graph.transitive_closure.build", "total_s"),
        "core.recency.propagated_recency_us": _get(ops, "core.recency.propagated_recency", "p50_us"),
        "core.recency.propagate_us": _get(ops, "core.recency.propagate", "p50_us"),
        "core.recency.propagate_component_us": _get(ops, "core.recency.propagate_component", "p50_us"),
        "core.recency.propagate_component_calls": _get(ops, "core.recency.propagate_component", "calls"),
        "core.recency.network_build_s": _get(setup, "core.recency.network_build", "total_s"),
        "core.popularity.popularity_scores_us": _get(ops, "core.popularity.popularity_scores", "p50_us"),
        "core.scoring.combine_scores_us": _get(ops, "core.scoring.combine_scores", "p50_us"),
        "kb.complemented.link_tweet_calls": _get(ops, "kb.complemented.link_tweet", "calls"),
        "eval.context.build_experiment_s": _get(setup, "eval.context.build_experiment", "total_s"),
    }


def complete_layers(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, zero for layers the workload never ran."""
    unknown = sorted(set(values) - set(PER_LAYER))
    if unknown:
        raise ValueError(f"unknown per-layer metrics: {', '.join(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def result_line(
    metrics: Dict[str, float],
    units: Dict[str, str],
    attempted: int,
    failed: int,
    correct: bool,
) -> Dict[str, object]:
    """The final JSON object the benchmark prints."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }
