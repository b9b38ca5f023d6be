"""Where the traced run records spans: one table per group of layers.

Each entry names the attribute to wrap (``module:function`` at the
module that calls it, or ``module:Class.method``) and the span it
records.  Nothing under ``src/`` changes; the wrappers are installed in
the benchmark's own process or, for ``repro serve``, by
``launch_serve.py`` before the server starts.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracing import Tracer


def _count_candidates(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("core.candidates.returned", len(result))


def _count_lookups(tracer: Tracer, args: tuple, result) -> None:
    # normalized_interest(provider, user, influential_by_entity): one
    # influential-user lookup per candidate entity.
    tracer.count("core.influence.lookups", len(args[2]))


def _count_degraded(tracer: Tracer, args: tuple, result) -> None:
    if result.degraded:
        tracer.count("core.linker.degraded")


def _request_id(args: tuple):
    # ServeApp.handle(self, method, path, body, headers)
    headers = args[4] if len(args) > 4 else None
    return (headers or {}).get("x-request-id")


Probe = Tuple[str, str, Dict[str, object]]

#: The five linker stages and the index they query, per mention.
LINKER: List[Probe] = [
    ("repro.core.linker:SocialTemporalLinker.link", "core.linker.link", {"on_result": _count_degraded}),
    ("repro.core.linker:SocialTemporalLinker.confirm_link", "core.linker.confirm_link", {}),
    ("repro.core.candidates:CandidateGenerator.candidates", "core.candidates.candidates", {"on_result": _count_candidates}),
    ("repro.core.linker:normalized_interest", "core.interest.normalized_interest", {"on_result": _count_lookups}),
    ("repro.core.linker:top_influential_users", "core.influence.top_influential_users", {}),
    ("repro.graph.transitive_closure:TransitiveClosure.reachability", "graph.transitive_closure.reachability", {}),
    ("repro.core.linker:propagated_recency", "core.recency.propagated_recency", {}),
    ("repro.core.recency:RecencyPropagationNetwork.propagate", "core.recency.propagate", {}),
    ("repro.core.recency:RecencyPropagationNetwork.propagate_component", "core.recency.propagate_component", {}),
    ("repro.core.linker:popularity_scores", "core.popularity.popularity_scores", {}),
    ("repro.core.linker:combine_scores", "core.scoring.combine_scores", {}),
    ("repro.kb.complemented:ComplementedKnowledgebase.link_tweet", "kb.complemented.link_tweet", {}),
]

#: Set-up work shared by the linker workloads.
SETUP: List[Probe] = [
    ("repro.eval.context:build_experiment", "eval.context.build_experiment", {}),
    ("repro.eval.context:build_transitive_closure_incremental", "graph.transitive_closure.build", {}),
    ("repro.core.recency:RecencyPropagationNetwork.__init__", "core.recency.network_build", {}),
]

#: The served request path inside ``repro serve``.
SERVE: List[Probe] = [
    ("repro.serve.handlers:ServeApp.handle", "serve.handlers.handle", {"request_id": _request_id}),
    ("repro.serve.admission:ClassedAdmissionController.admit", "serve.admission.admit", {}),
    ("repro.serve.tenants:TokenBucket.try_acquire", "serve.tenants.try_acquire", {}),
    ("repro.serve.tenants:build_tenant_registry", "serve.tenants.build_tenant_registry", {}),
    ("repro.cli:load_world", "io.load_world", {}),
]

#: The in-process stream front end.
STREAM: List[Probe] = [
    ("repro.stream.ingest:ResilientIngestor.push", "stream.ingest.push", {}),
]

#: Queries on the compact 2-hop cover.
INDEX: List[Probe] = [
    ("repro.graph.compact_labels:CompactTwoHopCover.reachability", "graph.compact_labels.reachability", {}),
]


def install(tracer: Tracer, probes: List[Probe]) -> List[str]:
    """Install every probe; returns the targets that could not be found."""
    return [
        target
        for target, name, options in probes
        if not tracer.install(target, name, **options)
    ]
