"""index-build: compact 2-hop cover build and queries on a 5k-user streaming world.

Each round streams the follow graph of ``scale_tier_profile(5000, s)``
(``streaming_world_graph``) for a seed ``s`` derived from the run's seed
and the round number, builds the compact cover the scale-aware
dispatch would build for it (``build_compact_two_hop_cover``, exact
followee recovery, the configured memory budget), then times sampled
``CompactTwoHopCover.reachability`` queries one by one.  Rounds repeat
until the run's time is used, each on its own graph, and the figures are
medians over rounds; no linker or serving code runs.

Output check: sampled pairs, half of them sources with a target within
``max_hops``, must equal the exact Eq. 4 value of
``repro.graph.reachability.weighted_reachability``.
"""

from __future__ import annotations

import gc
import os
import random
import time
from typing import Dict, List, Tuple

from common import SpeedTracker, median, peak_rss_mib, percentile, room_for_another

USERS = 5000
QUERIES_PER_ROUND = 20000
CHECKED_PER_ROUND = 200
MIN_ROUNDS = 2


class IndexBuild:
    name = "index-build"

    def __init__(self, root: str, workdir: str, seed: int, seconds: float) -> None:
        from repro.config import DEFAULT_CONFIG

        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.config = DEFAULT_CONFIG

    def _graph(self, round_number: int):
        from repro.bench import scale_tier_profile
        from repro.graph.generators import streaming_world_graph

        return streaming_world_graph(scale_tier_profile(USERS, self.seed + 7919 * round_number))

    def _build(self, graph):
        from repro.graph.compact_labels import build_compact_two_hop_cover

        return build_compact_two_hop_cover(
            graph,
            max_hops=self.config.max_hops,
            memory_budget_bytes=self.config.index_memory_budget_bytes,
            exact_reachability=True,
        )

    def pairs(self, graph, round_number: int) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
        """Timed query pairs (uniform) and checked pairs (half nearby)."""
        rng = random.Random(f"index-build/{self.seed}/{round_number}")
        nodes = graph.num_nodes
        timed = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(QUERIES_PER_ROUND)]
        checked = []
        while len(checked) < CHECKED_PER_ROUND:
            source = rng.randrange(nodes)
            target = rng.randrange(nodes)
            if len(checked) % 2 == 0:
                # walk up to max_hops follow edges so the pair is reachable
                node = source
                for _ in range(rng.randint(1, self.config.max_hops)):
                    followees = list(graph.out_neighbors(node))
                    if not followees:
                        break
                    node = rng.choice(followees)
                target = node
            checked.append((source, target))
        return timed, checked

    def _round(self, round_number: int, tracker: SpeedTracker) -> Dict[str, object]:
        """One graph, one build, the timed queries and the checks."""
        from repro.graph.reachability import weighted_reachability

        gc.collect()  # start every round from a comparable heap
        started = time.perf_counter()
        graph = self._graph(round_number)
        graph_done = time.perf_counter()
        cover = self._build(graph)
        build_done = time.perf_counter()
        timed, checked = self.pairs(graph, round_number)
        calls = []
        queries_started = time.perf_counter()
        for source, target in timed:
            begin = time.perf_counter()
            cover.reachability(source, target)
            calls.append((begin, time.perf_counter()))
        queries_done = time.perf_counter()
        wrong = sum(
            cover.reachability(s, t) != weighted_reachability(graph, s, t, self.config.max_hops)
            for s, t in checked
        )
        return {
            "setup_s": tracker.scaled(started, graph_done),
            "build_s": tracker.scaled(graph_done, build_done),
            "raw_build_s": build_done - graph_done,
            "query_s": tracker.scaled(queries_started, queries_done),
            "latencies": [tracker.scaled(begin, end) for begin, end in calls],
            "raw_latencies": [end - begin for begin, end in calls],
            "raw_query_s": queries_done - queries_started,
            "checked": len(checked),
            "wrong": wrong,
            "index_mib": cover.size_bytes() / 2 ** 20,
        }

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, object]:
        rounds: List[Dict[str, object]] = []
        started = time.perf_counter()
        with SpeedTracker() as tracker:
            while len(rounds) < MIN_ROUNDS or room_for_another(started, len(rounds), self.seconds):
                rounds.append(self._round(len(rounds), tracker))
        checked = sum(r["checked"] for r in rounds)
        wrong = sum(r["wrong"] for r in rounds)
        metrics = {
            "setup_s": median([r["setup_s"] for r in rounds]),
            "rss_mib": peak_rss_mib(),
            "ok_ratio": (checked - wrong) / checked,
            "p50_ms": median([percentile(r["latencies"], 50.0) for r in rounds]) * 1000.0,
            "tail_ms": median([percentile(r["latencies"], 99.0) for r in rounds]) * 1000.0,
            "throughput_per_s": median([QUERIES_PER_ROUND / r["query_s"] for r in rounds]),
            "accuracy": (checked - wrong) / checked,
            "index_build_s": median([r["build_s"] for r in rounds]),
            "index_mib": median([r["index_mib"] for r in rounds]),
        }
        report = {
            "rounds": len(rounds),
            "query_samples_per_round": QUERIES_PER_ROUND,
            "tail_percentile": 99.0,
            "checked_pairs": checked,
            "build_samples_s": [r["build_s"] for r in rounds],
            "raw_build_samples_s": [r["raw_build_s"] for r in rounds],
            "raw": {
                "p50_ms": median([percentile(r["raw_latencies"], 50.0) for r in rounds]) * 1000.0,
                "tail_ms": median([percentile(r["raw_latencies"], 99.0) for r in rounds]) * 1000.0,
                "throughput_per_s": median([QUERIES_PER_ROUND / r["raw_query_s"] for r in rounds]),
                "index_build_s": median([r["raw_build_s"] for r in rounds]),
            },
            "setup_samples_s": [r["setup_s"] for r in rounds],
            "index_mib_samples": [r["index_mib"] for r in rounds],
        }
        return {
            "metrics": metrics,
            "attempted": checked,
            "failed": wrong,
            "correct": wrong == 0,
            "report": report,
        }

    def run_traced(self) -> Dict[str, object]:
        import probes
        from tracing import Tracer, layer_summary

        with SpeedTracker() as tracker:
            untraced = self._round(0, tracker)
            tracer = Tracer()
            missing = probes.install(tracer, probes.INDEX)
            try:
                with tracer.span("graph.generators.streaming_world_graph"):
                    graph = self._graph(0)
                started = time.perf_counter()
                with tracer.span("graph.compact_labels.build"):
                    cover = self._build(graph)
                timed, _ = self.pairs(graph, 0)
                for source, target in timed:
                    cover.reachability(source, target)
                traced_s = tracker.scaled(started, time.perf_counter())
            finally:
                tracer.uninstall()
        summary = layer_summary(tracer.layers())
        spans = tracer.write(os.path.join(self.workdir, "spans.jsonl"))
        nodes = graph.num_nodes
        untraced_s = untraced["build_s"] + untraced["query_s"]
        layers = {
            "graph.generators.streaming_world_graph_s": summary["graph.generators.streaming_world_graph"]["total_s"],
            "graph.compact_labels.build_s": summary["graph.compact_labels.build"]["total_s"],
            "graph.compact_labels.reachability_us": summary.get("graph.compact_labels.reachability", {}).get("p50_us", 0.0),
            "graph.compact_labels.entries_per_node": cover.num_label_entries() / nodes,
            "graph.compact_labels.label_bytes": cover.label_bytes(),
            "graph.compact_labels.backbone_bytes": cover.backbone_bytes(),
            "trace.overhead_ratio": traced_s / untraced_s,
            "trace.spans": spans,
        }
        return {
            "layers": layers,
            "attempted": untraced["checked"],
            "failed": untraced["wrong"],
            "correct": untraced["wrong"] == 0,
            "report": {"summary": summary, "missing_probes": missing},
        }
