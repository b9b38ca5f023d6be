"""stream-feedback: the ``repro stream`` path in-process, with feedback writes.

Each pass sets up what ``repro stream`` sets up before its first tweet,
on a 1000-user world generated in-process as ``repro generate --users
1000`` would: ``build_experiment(test_user_cap=1000)`` with a
truth-complemented KB, the transitive closure and the recency network,
a linker with a circuit breaker, and a ``ResilientIngestor``.  Then the
whole test split (about 2k mentions) streams through
``ResilientIngestor.push``/``flush``, ``SocialTemporalLinker.link_tweet``
and ``confirm_link`` on every top entity, closed-loop.  Every confirmed
link writes to the complemented KB the next mention reads.

Passes cycle over ``WORLDS`` worlds derived from the seed (the first is
the seed's own world), each on freshly built state, until the run's time
is used; at least one world is passed twice.  Medians over passes over
several worlds keep one world's quirks out of the figures.  Accuracy
pools the first pass of each world, so it depends on the seed alone.

Output checks: a world passed twice must produce the same decision
digest both times, and no tweet may be dead-lettered.
"""

from __future__ import annotations

import gc
import hashlib
import os
import time
from typing import Dict, List

from common import SpeedTracker, median, peak_rss_mib, percentile, room_for_another

USERS = 1000
TEST_USER_CAP = 1000
WORLDS = 3
MIN_PASSES = WORLDS + 1
EXTRA_CLOSURE_BUILDS = 3


def world_seed(seed: int, index: int) -> int:
    return seed + 7919 * index


def generate_world(seed: int):
    """The world ``repro generate --seed SEED --users 1000`` writes."""
    from repro.config import DAY
    from repro.kb.builder import KBProfile
    from repro.stream.generator import StreamProfile, SyntheticWorld

    return SyntheticWorld.generate(
        kb_profile=KBProfile(num_topics=8, entities_per_topic=10, ambiguity=4, seed=seed),
        stream_profile=StreamProfile(num_users=USERS, horizon=120 * DAY, seed=seed),
    )


class StreamFeedback:
    name = "stream-feedback"

    def __init__(self, root: str, workdir: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds

    # ------------------------------------------------------------------ #
    def _setup(self, world_index: int):
        """Everything before the first tweet; returns the state and the
        raw ``perf_counter`` interval of the closure build."""
        import repro.eval.context as context_module
        from repro.core.linker import SocialTemporalLinker
        from repro.resilience.breaker import CircuitBreaker
        from repro.stream.ingest import ResilientIngestor, TweetValidator

        world = generate_world(world_seed(self.seed, world_index))
        context = context_module.build_experiment(
            world=world, complement_method="truth", test_user_cap=TEST_USER_CAP
        )
        started = time.perf_counter()
        closure = context.closure
        closure_interval = (started, time.perf_counter())
        linker = SocialTemporalLinker(
            context.ckb,
            world.graph,
            config=context.config,
            reachability=closure,
            propagation_network=context.propagation_network,
            breaker=CircuitBreaker(),
        )
        ingestor = ResilientIngestor(
            validator=TweetValidator(known_users=range(world.num_users)),
            lateness=0.0,
        )
        return (context, closure, linker, ingestor), closure_interval

    def _pass(self, world_index: int, tracker: SpeedTracker, tracer=None) -> Dict[str, object]:
        """Set up on one world and stream its test split once."""
        from repro.graph.transitive_closure import build_transitive_closure_incremental

        gc.collect()  # start every repetition from a comparable heap
        started = time.perf_counter()
        (context, closure, linker, ingestor), closure_interval = self._setup(world_index)
        setup_interval = (started, time.perf_counter())
        calls: List[tuple] = []  # (start, end, mentions) of each link_tweet
        digest = hashlib.sha256()
        counts = {"mentions": 0, "labeled": 0, "correct": 0, "degraded": 0}

        def consume(released) -> None:
            for tweet in released:
                begin = time.perf_counter()
                results = linker.link_tweet(tweet)
                calls.append((begin, time.perf_counter(), len(results)))
                for outcome in results:
                    result = outcome.result
                    best = result.best
                    if best is not None:
                        linker.confirm_link(best.entity_id, tweet.user, tweet.timestamp, tweet.tweet_id)
                    truth = tweet.mentions[outcome.mention_index].true_entity
                    chosen = -1 if best is None else best.entity_id
                    digest.update(f"{tweet.tweet_id}:{outcome.mention_index}:{chosen}:{result.degradation};".encode())
                    counts["mentions"] += 1
                    counts["degraded"] += int(result.degraded)
                    if truth is not None:
                        counts["labeled"] += 1
                        counts["correct"] += int(chosen == truth)

        started = time.perf_counter()
        for tweet in context.test_dataset.tweets:
            if tracer is not None:
                with tracer.span("bench.tweet"):
                    consume(ingestor.push(tweet))
            else:
                consume(ingestor.push(tweet))
        consume(ingestor.flush())
        stream_interval = (started, time.perf_counter())
        # More builds of the same closure, after the stream, for a steadier median.
        closure_times = [tracker.scaled(*closure_interval)]
        for _ in range(EXTRA_CLOSURE_BUILDS):
            begin = time.perf_counter()
            build_transitive_closure_incremental(context.world.graph, max_hops=context.config.max_hops)
            closure_times.append(tracker.scaled(begin, time.perf_counter()))
        # A tweet's link time is split evenly over its mentions.
        latencies = [
            tracker.scaled(begin, end) / mentions
            for begin, end, mentions in calls
            for _ in range(mentions)
        ]
        return dict(
            counts,
            setup_s=tracker.scaled(*setup_interval),
            closure_times=closure_times,
            closure_mib=closure.size_bytes() / 2 ** 20,
            elapsed_s=tracker.scaled(*stream_interval),
            raw_elapsed_s=stream_interval[1] - stream_interval[0],
            latencies=latencies,
            raw_latencies=[(end - begin) / mentions for begin, end, mentions in calls for _ in range(mentions)],
            raw_setup_s=setup_interval[1] - setup_interval[0],
            dead_lettered=ingestor.stats.dead_lettered,
            digest=digest.hexdigest(),
        )

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, object]:
        passes: List[Dict[str, object]] = []
        started = time.perf_counter()
        with SpeedTracker() as tracker:
            while len(passes) < MIN_PASSES or room_for_another(started, len(passes), self.seconds):
                passes.append(self._pass(len(passes) % WORLDS, tracker))
        firsts = passes[:WORLDS]
        attempted = sum(p["mentions"] for p in passes)
        failed = sum(p["dead_lettered"] for p in passes)
        # A repeated pass whose decisions differ from the world's first pass
        # failed every mention it linked.
        mismatched = [
            number for number, p in enumerate(passes)
            if p["digest"] != passes[number % WORLDS]["digest"]
        ]
        failed += sum(passes[number]["mentions"] for number in mismatched)
        latencies = [t for p in passes for t in p["latencies"]]
        metrics = {
            "setup_s": median([p["setup_s"] for p in passes]),
            "rss_mib": peak_rss_mib(),
            "ok_ratio": (attempted - failed) / attempted,
            "p50_ms": percentile(latencies, 50.0) * 1000.0,
            "tail_ms": percentile(latencies, 99.0) * 1000.0,
            "throughput_per_s": median([p["mentions"] / p["elapsed_s"] for p in passes]),
            "accuracy": sum(p["correct"] for p in firsts) / sum(p["labeled"] for p in firsts),
            "index_build_s": median([t for p in passes for t in p["closure_times"]]),
            "index_mib": median([p["closure_mib"] for p in passes]),
        }
        report = {
            "passes": len(passes),
            "worlds": [world_seed(self.seed, k) for k in range(WORLDS)],
            "world_accuracy": [p["correct"] / p["labeled"] for p in firsts],
            "mentions_per_pass": [p["mentions"] for p in passes],
            "latency_samples": len(latencies),
            "tail_percentile": 99.0,
            "digests": [p["digest"] for p in firsts],
            "mismatched_passes": mismatched,
            "degraded": sum(p["degraded"] for p in passes),
            "setup_samples_s": [p["setup_s"] for p in passes],
            "pass_seconds": [p["elapsed_s"] for p in passes],
            "raw_pass_seconds": [p["raw_elapsed_s"] for p in passes],
            "raw": {
                "p50_ms": percentile([t for p in passes for t in p["raw_latencies"]], 50.0) * 1000.0,
                "tail_ms": percentile([t for p in passes for t in p["raw_latencies"]], 99.0) * 1000.0,
                "throughput_per_s": median([p["mentions"] / p["raw_elapsed_s"] for p in passes]),
                "setup_s": median([p["raw_setup_s"] for p in passes]),
            },
        }
        return {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "correct": failed == 0,
            "report": report,
        }

    def run_traced(self) -> Dict[str, object]:
        import probes
        from metrics import linker_layers
        from tracing import Tracer, layer_summary

        with SpeedTracker() as tracker:
            untraced = self._pass(0, tracker)
            tracer = Tracer()
            missing = probes.install(tracer, probes.LINKER + probes.SETUP + probes.STREAM)
            try:
                traced = self._pass(0, tracker, tracer)
            finally:
                tracer.uninstall()
        ops = layer_summary(tracer.layers(roots=["bench.tweet"]))
        setup = layer_summary(tracer.layers())
        spans = tracer.write(os.path.join(self.workdir, "spans.jsonl"))
        layers = linker_layers(ops, setup, tracer.counts)
        layers.update({
            "stream.ingest.push_us": ops.get("stream.ingest.push", {}).get("p50_us", 0.0),
            "stream.ingest.dead_lettered": traced["dead_lettered"],
            "trace.overhead_ratio": traced["elapsed_s"] / untraced["elapsed_s"],
            "trace.spans": spans,
        })
        failed = traced["dead_lettered"] + (traced["mentions"] if traced["digest"] != untraced["digest"] else 0)
        return {
            "layers": layers,
            "attempted": traced["mentions"] + untraced["mentions"],
            "failed": failed,
            "correct": failed == 0,
            "report": {
                "ops": ops,
                "setup": setup,
                "counts": tracer.counts,
                "missing_probes": missing,
                "skipped_roots": tracer.skipped_roots,
            },
        }
