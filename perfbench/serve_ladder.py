"""serve-ladder: open-loop rate ladder and closed-loop saturation of ``repro serve``.

The server runs as its own process on a world ``repro generate`` makes
from the seed (400 users), hosting tenants alpha and beta with a token
bucket far above the ladder top, so rate limiting never rejects.
Requests are ``POST /v1/link`` bodies sampled from the world's test
split.  One client thread drives at most ``nproc`` keep-alive
connections:

1. a Poisson rate ladder from 25/s, doubling, stopping at the first step
   that misses the latency limit, fails a request or builds a backlog;
2. a closed loop keeping every connection busy for the rest of the run.

Every 200 body that is not ``degraded`` must equal what an in-process
``ServeApp.handle`` returns on an identically built registry.
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import math
import os
import queue
import random
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import SpeedTracker, children_peak_rss_mib, load_slots, median, percentile, supports_percentile
from loadclient import LoadClient, Outcome, backlog_grew, poisson_dues, render_request

LO_RATE = 25.0
LADDER_STEPS = 8  # 25/s .. 3200/s
#: Step pass limit on p95 latency; a step's smallest sample (200) leaves
#: ten requests beyond p95, not beyond p99.
LATENCY_LIMIT_MS = 25.0
TAIL_PERCENTILE = 95.0
#: ``tail_ms`` is this percentile of closed-loop request latency, not the
#: 25/s step's tail: on a server with a 40 ms write stall the share of
#: low-rate requests that queue behind a stall, and with it every tail
#: percentile of that step, swings by a third from seed to seed.
CLOSED_TAIL_PERCENTILE = 95.0
MIN_STEP_REQUESTS = 200
MIN_STEP_S = 1.0
SERVER_STARTS = 5
#: Seconds of speed probes on an idle machine before each server start.
QUIET_S = 0.4
TENANTS = ("alpha", "beta")
TENANT_RATE = 1_000_000.0
DEADLINE_MS = 50.0
#: Closure builds timed in-process once the server is stopped.
CLOSURE_BUILDS = 30
#: Shares of ``--seconds`` for the 25/s step and for the whole ladder.
LO_SHARE = 0.7
LADDER_SHARE = 0.9


# ---------------------------------------------------------------------- #
# the request plan: a pure function of the seed
# ---------------------------------------------------------------------- #
Query = Tuple[str, int, float, Optional[int]]


def link_body(query: Query, tenant: str) -> bytes:
    surface, user, now, _ = query
    return json.dumps(
        {"tenant": tenant, "surface": surface, "user": user, "now": now},
        sort_keys=True,
    ).encode("utf-8")


class Step:
    def __init__(self, rate: float, dues: List[float], picks: List[Tuple[int, int]]) -> None:
        self.rate = rate
        self.dues = dues
        self.picks = picks


def plan(seed: int, query_count: int, lo_seconds: float) -> Tuple[List[Step], List[Tuple[int, int]]]:
    """Arrival times and (query, tenant) picks of every ladder step, plus
    the closed loop's request cycle."""
    rng = random.Random(f"serve-ladder/{seed}")
    steps = []
    for k in range(LADDER_STEPS):
        rate = LO_RATE * 2 ** k
        duration = lo_seconds if k == 0 else max(MIN_STEP_S, MIN_STEP_REQUESTS / rate)
        count = max(MIN_STEP_REQUESTS, int(round(rate * duration)))
        dues = poisson_dues(rng, rate, count)
        picks = [(rng.randrange(query_count), rng.randrange(len(TENANTS))) for _ in range(count)]
        steps.append(Step(rate, dues, picks))
    closed = [(rng.randrange(query_count), rng.randrange(len(TENANTS))) for _ in range(4096)]
    return steps, closed


def interpolate_max_rate(steps: Sequence[Tuple[float, float, bool]], limit_ms: float) -> float:
    """Highest rate meeting the limit, from ``(rate, tail_ms, passed)`` steps.

    Between the last passing step and the first failing one the tail is
    taken as linear in log-rate against log-latency, and the rate where
    it crosses ``limit_ms`` is returned.  A failing step whose tail still
    meets the limit (it failed on errors or backlog) gives the last
    passing rate.  0.0 when the first step fails; the ladder top when all
    pass.
    """
    last: Optional[Tuple[float, float]] = None
    for rate, tail, passed in steps:
        if passed:
            last = (rate, tail)
            continue
        if last is None:
            return 0.0
        low_rate, low_tail = last
        if tail <= limit_ms:
            return low_rate
        share = math.log(limit_ms / low_tail) / math.log(tail / low_tail)
        return low_rate * (rate / low_rate) ** share
    return last[0] if last else 0.0


# ---------------------------------------------------------------------- #
# the server process
# ---------------------------------------------------------------------- #
class Server:
    """``repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str, probe: bytes) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            argv, env=env, cwd=cwd, stdin=subprocess.PIPE,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.log: List[str] = []
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_port()
        self.ready_s = self._await_first_link(probe)

    def _read(self) -> None:
        for line in self.process.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                line = self._lines.get(timeout=1.0)
            except queue.Empty:
                continue
            if line is None:
                break
            self.log.append(line)
            match = re.search(r"serving on http://[\d.]+:(\d+)", line)
            if match:
                threading.Thread(target=self._drain, daemon=True).start()
                return int(match.group(1))
        self.stop()
        raise RuntimeError("server did not start:\n" + "".join(self.log[-20:]))

    def _drain(self) -> None:
        while True:
            line = self._lines.get()
            if line is None:
                return
            self.log.append(line)
            del self.log[:-50]

    def _await_first_link(self, body: bytes) -> float:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
            try:
                connection.request("POST", "/v1/link", body=body, headers={"Content-Type": "application/json"})
                response = connection.getresponse()
                response.read()
                if response.status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                time.sleep(0.01)
            finally:
                connection.close()
        self.stop()
        raise RuntimeError("server never answered a link request")

    def get(self, path: str) -> Dict[str, object]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10.0)
        try:
            connection.request("GET", path)
            return json.loads(connection.getresponse().read().decode("utf-8"))
        finally:
            connection.close()

    def peak_rss_mib(self) -> Optional[float]:
        """Peak RSS of the live server from ``/proc`` (``None`` off Linux)."""
        try:
            with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return None

    def stop(self, graceful: bool = False) -> int:
        """Stop the process and wait for it; ``graceful`` closes stdin first
        (the traced launcher then writes its spans and exits)."""
        if graceful and self.process.poll() is None:
            self.process.stdin.close()
            try:
                return self.process.wait(timeout=120.0)
            except subprocess.TimeoutExpired:
                pass
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        self._reader.join(timeout=5.0)
        return self.process.returncode


# ---------------------------------------------------------------------- #
# oracle and output checks
# ---------------------------------------------------------------------- #
class Oracle:
    """The same registry the server builds, answering in-process."""

    def __init__(self, world_path: str) -> None:
        from repro.io import load_world
        from repro.serve.handlers import ServeApp
        from repro.serve.tenants import TenantSpec, build_tenant_registry

        self.world = load_world(world_path)
        specs = [
            TenantSpec(name=name, rate=TENANT_RATE, burst=TENANT_RATE, deadline_ms=DEADLINE_MS)
            for name in TENANTS
        ]
        registry, context = build_tenant_registry(self.world, specs)
        self.app = ServeApp(registry)
        self.queries: List[Query] = [
            (mention.surface, tweet.user, tweet.timestamp, mention.true_entity)
            for tweet in context.test_dataset.tweets
            for mention in tweet.mentions
        ]
        self._expected: Dict[bytes, Dict[str, object]] = {}

    def expected(self, body: bytes) -> Dict[str, object]:
        document = self._expected.get(body)
        if document is None:
            for _ in range(3):  # a degraded oracle answer is retried
                status, document = self.app.handle("POST", "/v1/link", body, {})
                if status != 200 or document.get("outcome") != "degraded":
                    break
            self._expected[body] = document
        return document


class Tally:
    """Counts of one phase: attempted, failed, degraded, checked bodies and
    top entities equal to the ground truth."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ok = 0
        self.degraded = 0
        self.checked = 0
        self.matched = 0
        self.labeled = 0
        self.correct = 0
        self.mismatches: List[str] = []

    def merge(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "ok", "degraded", "checked", "matched", "labeled", "correct"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.mismatches += other.mismatches

    def check(self, outcomes: Sequence[Outcome], bodies: Sequence[bytes], truths: Sequence[Optional[int]], oracle: Oracle) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if not outcome.ok:
                self.failed += 1
                self.mismatches.append(outcome.error or f"status {outcome.status}")
                continue
            try:
                document = json.loads(outcome.body.decode("utf-8"))
            except ValueError:
                self.failed += 1
                self.mismatches.append("unparseable body")
                continue
            if document.get("outcome") == "degraded":
                self.ok += 1
                self.degraded += 1
                continue
            self.checked += 1
            if document != oracle.expected(bodies[outcome.index]):
                outcome.error = "body differs from the oracle"
                self.failed += 1
                self.mismatches.append(outcome.error)
                continue
            self.matched += 1
            self.ok += 1
            truth = truths[outcome.index]
            if truth is not None:
                self.labeled += 1
                self.correct += int(document.get("entity") == truth)


# ---------------------------------------------------------------------- #
# the workload
# ---------------------------------------------------------------------- #
class ServeLadder:
    name = "serve-ladder"

    def __init__(self, root: str, workdir: str, seed: int, seconds: float) -> None:
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.slots = load_slots()
        self.world_path = os.path.join(workdir, f"serve-world-{seed}.json.gz")
        from repro.cli import main as cli_main

        with contextlib.redirect_stdout(io.StringIO()):
            if cli_main(["generate", "--out", self.world_path, "--seed", str(seed)]) != 0:
                raise RuntimeError("repro generate failed")
        self.oracle = Oracle(self.world_path)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _serve_args(self) -> List[str]:
        return [
            "serve", "--world", self.world_path, "--port", "0",
            "--tenants", ",".join(TENANTS),
            "--tenant-rate", str(TENANT_RATE), "--tenant-burst", str(TENANT_RATE),
            "--deadline-ms", str(DEADLINE_MS),
        ]

    def _timed_start(self, tracker: SpeedTracker) -> Tuple[Server, float, float]:
        """A plain server, its raw set-up seconds and the speed-scaled ones.

        The speed is probed while nothing else runs, just before the
        spawn: probes during start-up would share the machine with the
        starting server, and how much depends on which cores the
        scheduler gives the two processes.
        """
        quiet = time.perf_counter()
        time.sleep(QUIET_S)
        server = self._start()
        return server, server.ready_s, server.ready_s * tracker.factor(quiet, server.started, pad=0.0)

    def _start(self, traced_files: Optional[Tuple[str, str]] = None) -> Server:
        probe = link_body(self.oracle.queries[0], TENANTS[0])
        if traced_files is None:
            argv = [sys.executable, "-m", "repro.cli", "--log-level", "INFO"] + self._serve_args()
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch_serve.py")
            argv = [
                sys.executable, launcher, "--spans", traced_files[0], "--summary", traced_files[1],
                "--", "--log-level", "INFO",
            ] + self._serve_args()
        return Server(argv, self.env, self.root, probe)

    def _bodies(self, picks: Sequence[Tuple[int, int]]) -> List[bytes]:
        return [link_body(self.oracle.queries[q], TENANTS[t]) for q, t in picks]

    def _truths(self, picks: Sequence[Tuple[int, int]]) -> List[Optional[int]]:
        return [self.oracle.queries[q][3] for q, _ in picks]

    def _ladder(self, client: LoadClient, steps: List[Step], tally: Tally, budget_s: float) -> Tuple[List[Dict[str, object]], List[Outcome]]:
        """Run steps until one fails; returns per-step rows and all outcomes."""
        rows: List[Dict[str, object]] = []
        everything: List[Outcome] = []
        started = time.perf_counter()
        for number, step in enumerate(steps):
            if number and time.perf_counter() - started > budget_s:
                break
            bodies = self._bodies(step.picks)
            payloads = [render_request("/v1/link", body, request_id=number * 1_000_000 + i) for i, body in enumerate(bodies)]
            outcomes = client.open_loop(step.dues, payloads)
            step_tally = Tally()
            step_tally.check(outcomes, bodies, self._truths(step.picks), self.oracle)
            tally.merge(step_tally)
            everything += outcomes
            good = [o.latency * 1000.0 for o in outcomes if o.ok]
            tail = percentile(good, TAIL_PERCENTILE) if good else float("inf")
            backlog = backlog_grew(outcomes, slack_s=LATENCY_LIMIT_MS / 1000.0)
            passed = step_tally.failed == 0 and tail <= LATENCY_LIMIT_MS and not backlog
            rows.append({
                "rate": step.rate,
                "sent": len(outcomes),
                "ok": step_tally.ok,
                "failed": step_tally.failed,
                "p50_ms": percentile(good, 50.0) if good else float("inf"),
                "tail_ms": tail,
                "wait_p50_ms": percentile([o.wait * 1000.0 for o in outcomes], 50.0),
                "late_p99_ms": percentile([o.late * 1000.0 for o in outcomes], 99.0),
                "backlog_grew": backlog,
                "passed": passed,
            })
            if not passed:
                break
        return rows, everything

    def _closed(self, client: LoadClient, cycle: List[Tuple[int, int]], duration_s: float, tally: Tally) -> Tuple[float, List[Outcome]]:
        """Closed loop; returns completed requests per second and outcomes."""
        bodies = self._bodies(cycle)
        payloads = [render_request("/v1/link", body, request_id=9_000_000 + i) for i, body in enumerate(bodies)]
        outcomes, elapsed = client.closed_loop(payloads, duration_s)
        tally.check(outcomes, bodies, self._truths(cycle), self.oracle)
        return sum(o.ok for o in outcomes) / elapsed, outcomes

    def _closure(self) -> Tuple[float, float]:
        """Median build time and size of the index the server builds."""
        from repro.config import DEFAULT_CONFIG
        from repro.graph.transitive_closure import build_transitive_closure_incremental

        times = []
        with SpeedTracker() as tracker:
            for _ in range(CLOSURE_BUILDS):
                started = time.perf_counter()
                closure = build_transitive_closure_incremental(self.oracle.world.graph, max_hops=DEFAULT_CONFIG.max_hops)
                times.append(tracker.scaled(started, time.perf_counter()))
        return median(times), closure.size_bytes() / 2 ** 20

    # ------------------------------------------------------------------ #
    def run(self) -> Dict[str, object]:
        steps, cycle = plan(self.seed, len(self.oracle.queries), lo_seconds=LO_SHARE * self.seconds)
        tally = Tally()
        raw_setups, setups = [], []
        with SpeedTracker() as tracker:
            for _ in range(SERVER_STARTS - 1):
                server, raw, scaled = self._timed_start(tracker)
                server.stop()
                raw_setups.append(raw)
                setups.append(scaled)
            server, raw, scaled = self._timed_start(tracker)
        raw_setups.append(raw)
        setups.append(scaled)
        started = time.perf_counter()
        try:
            with LoadClient(("127.0.0.1", server.port), self.slots) as client:
                rows, _ = self._ladder(client, steps, tally, budget_s=LADDER_SHARE * self.seconds)
                remaining = self.seconds - (time.perf_counter() - started)
                sat_rps, closed = self._closed(client, cycle, max(3.0, remaining), tally)
            health = server.get("/healthz")
            rss = server.peak_rss_mib()
        finally:
            server.stop()
        lo = rows[0]
        service = [(o.done - o.sent) * 1000.0 for o in closed if o.ok]
        build_s, index_mib = self._closure()
        max_rps = interpolate_max_rate([(r["rate"], r["tail_ms"], r["passed"]) for r in rows], LATENCY_LIMIT_MS)
        metrics = {
            "setup_s": median(setups),
            "rss_mib": rss if rss is not None else children_peak_rss_mib(),
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
            "p50_ms": lo["p50_ms"],
            "tail_ms": percentile(service, CLOSED_TAIL_PERCENTILE),
            "throughput_per_s": sat_rps,
            "accuracy": tally.matched / tally.checked if tally.checked else 0.0,
            "index_build_s": build_s,
            "index_mib": index_mib,
        }
        report = {
            "connections": self.slots,
            "latency_limit_ms": LATENCY_LIMIT_MS,
            "step_tail_percentile": TAIL_PERCENTILE,
            "lo_samples": lo["sent"],
            "closed_samples": len(service),
            "closed_tail_percentile": CLOSED_TAIL_PERCENTILE,
            "closed_tail_supported": supports_percentile(len(service), CLOSED_TAIL_PERCENTILE),
            "ladder": rows,
            "max_rps": max_rps,
            "sat_rps": sat_rps,
            "degraded_ratio": tally.degraded / tally.ok if tally.ok else 0.0,
            "linking_accuracy": tally.correct / tally.labeled if tally.labeled else 0.0,
            "setup_samples_s": setups,
            "raw_setup_samples_s": raw_setups,
            "admission": {k: health["admission"].get(k) for k in ("peak_pending", "shed", "admitted")},
            "ratelimited": sum(t["ratelimited"] for t in health["tenants"]),
            "mismatches": tally.mismatches[:10],
        }
        return {
            "metrics": metrics,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "correct": tally.failed == 0,
            "report": report,
        }

    def run_traced(self) -> Dict[str, object]:
        from metrics import linker_layers

        spans_path = os.path.join(self.workdir, f"serve-spans-{self.seed}.jsonl")
        summary_path = os.path.join(self.workdir, f"serve-summary-{self.seed}.json")
        steps, cycle = plan(self.seed, len(self.oracle.queries), lo_seconds=0.2 * self.seconds)
        reference_s = 0.2 * self.seconds
        tally = Tally()
        server = self._start()
        try:
            with LoadClient(("127.0.0.1", server.port), self.slots) as client:
                untraced_rps, _ = self._closed(client, cycle, reference_s, tally)
        finally:
            server.stop()
        server = self._start(traced_files=(spans_path, summary_path))
        started = time.perf_counter()
        try:
            with LoadClient(("127.0.0.1", server.port), self.slots) as client:
                rows, ladder_outcomes = self._ladder(client, steps, tally, budget_s=0.4 * self.seconds)
                remaining = 0.8 * self.seconds - (time.perf_counter() - started)
                traced_rps, closed_outcomes = self._closed(client, cycle, max(2.0, remaining), tally)
            health = server.get("/healthz")
        finally:
            code = server.stop(graceful=True)
        if code != 0:
            raise RuntimeError("traced server exited with code %s:\n%s" % (code, "".join(server.log[-20:])))
        with open(summary_path, encoding="utf-8") as handle:
            summary = json.load(handle)
        ops, setup, counts = summary["ops"], summary["setup"], summary["counts"]
        handle = ops.get("serve.handlers.handle", {})
        client_side = [(o.done - o.sent) * 1000.0 for o in ladder_outcomes + closed_outcomes if o.ok]
        layers = linker_layers(ops, setup, counts)
        layers.update({
            "serve.server.transport_p50_ms": percentile(client_side, 50.0) - handle.get("p50_us", 0.0) / 1000.0,
            "serve.handlers.handle_p50_ms": handle.get("p50_us", 0.0) / 1000.0,
            "serve.handlers.handle_p99_ms": handle.get("p99_us", 0.0) / 1000.0,
            "serve.handlers.self_p50_ms": handle.get("self_p50_us", 0.0) / 1000.0,
            "serve.admission.admit_us": ops.get("serve.admission.admit", {}).get("p50_us", 0.0),
            "serve.admission.in_flight_max": health["admission"]["peak_pending"],
            "serve.admission.shed": health["admission"]["shed"],
            "serve.tenants.try_acquire_us": ops.get("serve.tenants.try_acquire", {}).get("p50_us", 0.0),
            "serve.tenants.ratelimited": sum(t["ratelimited"] for t in health["tenants"]),
            "serve.client.late_p99_ms": percentile([o.late * 1000.0 for o in ladder_outcomes], 99.0),
            "serve.client.wait_p50_ms": percentile([o.wait * 1000.0 for o in ladder_outcomes], 50.0),
            "serve.client.sent": tally.attempted,
            "serve.client.ok": tally.ok,
            "serve.client.failed": tally.failed,
            "serve.client.steps": len(rows),
            "serve.client.max_rps": interpolate_max_rate([(r["rate"], r["tail_ms"], r["passed"]) for r in rows], LATENCY_LIMIT_MS),
            "serve.client.sat_rps": traced_rps,
            "io.load_world_s": setup.get("io.load_world", {}).get("total_s", 0.0),
            "serve.tenants.build_tenant_registry_s": setup.get("serve.tenants.build_tenant_registry", {}).get("total_s", 0.0),
            "serve.ready_s": server.ready_s,
            "trace.overhead_ratio": untraced_rps / traced_rps,
            "trace.spans": summary["spans"],
        })
        return {
            "layers": layers,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "correct": tally.failed == 0,
            "report": {"ladder": rows, "summary": summary, "spans_file": os.path.relpath(spans_path, self.root)},
        }
