"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q

They cover the parts whose mistakes would silently skew results: the
seeded plan, the output check, the ladder interpolation, the backlog
test, response framing, span self time and the metric names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from common import METRIC_NAME, percentile, supports_percentile  # noqa: E402
from loadclient import Outcome, _parse_response, backlog_grew  # noqa: E402
from metrics import END_TO_END, PER_LAYER, complete_layers  # noqa: E402
from serve_ladder import (  # noqa: E402
    LADDER_STEPS,
    MIN_STEP_REQUESTS,
    Oracle,
    Tally,
    interpolate_max_rate,
    link_body,
    plan,
)
from tracing import Tracer  # noqa: E402


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _flatten(planned):
    steps, closed = planned
    return [(s.rate, s.dues, s.picks) for s in steps], closed


def test_plan_is_a_pure_function_of_the_seed():
    assert _flatten(plan(7, 300, 8.0)) == _flatten(plan(7, 300, 8.0))
    assert _flatten(plan(7, 300, 8.0)) != _flatten(plan(8, 300, 8.0))


def test_plan_steps_double_and_carry_enough_samples():
    steps, _ = plan(3, 50, 8.0)
    assert len(steps) == LADDER_STEPS
    assert [s.rate for s in steps] == [25.0 * 2 ** k for k in range(LADDER_STEPS)]
    for step in steps:
        assert len(step.dues) >= MIN_STEP_REQUESTS
        assert step.dues == sorted(step.dues)
        assert all(0 <= q < 50 for q, _ in step.picks)
    # 25/s for 8 s: ~200 arrivals, so the mean rate is right
    assert 6.0 < steps[0].dues[-1] < 10.5


def test_stream_and_index_inputs_are_seeded():
    from index_build import IndexBuild
    from repro.graph.digraph import DiGraph
    from stream_feedback import world_seed

    assert world_seed(11, 0) == 11  # the seed's own world comes first
    assert len({world_seed(11, k) for k in range(3)}) == 3
    graph = DiGraph(6)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]:
        graph.add_edge(a, b)
    first = IndexBuild(ROOT, HERE, 5, 1.0).pairs(graph, 0)
    assert first == IndexBuild(ROOT, HERE, 5, 1.0).pairs(graph, 0)
    assert first != IndexBuild(ROOT, HERE, 6, 1.0).pairs(graph, 0)


# ---------------------------------------------------------------------- #
# output check
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    from repro.cli import main as cli_main

    path = str(tmp_path_factory.mktemp("world") / "world.json.gz")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(["generate", "--out", path, "--seed", "7", "--users", "60",
                         "--topics", "4", "--entities-per-topic", "10"]) == 0
    return Oracle(path)


def _served(index: int, document) -> Outcome:
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    return Outcome(index=index, due=0.0, done=0.001, status=200, body=body)


def test_oracle_check_accepts_the_true_body_and_flags_a_corrupted_one(oracle):
    body = link_body(oracle.queries[0], "alpha")
    expected = oracle.expected(body)
    assert expected["outcome"] in ("ok", "abstained")
    corrupted = dict(expected, score=(expected["score"] or 0.0) + 0.5, entity=-1)

    tally = Tally()
    tally.check([_served(0, expected), _served(1, corrupted)], [body, body], [None, None], oracle)
    assert (tally.attempted, tally.ok, tally.failed) == (2, 1, 1)
    assert tally.mismatches == ["body differs from the oracle"]


def test_non_200_and_transport_errors_count_as_failed(oracle):
    body = link_body(oracle.queries[0], "beta")
    refused = Outcome(index=0, due=0.0, done=0.001, status=503, body=b"{}")
    dropped = Outcome(index=1, due=0.0, error="timeout")
    tally = Tally()
    tally.check([refused, dropped], [body, body], [None, None], oracle)
    assert (tally.attempted, tally.failed) == (2, 2)


# ---------------------------------------------------------------------- #
# ladder and client accounting
# ---------------------------------------------------------------------- #
def test_interpolation_between_last_pass_and_first_fail():
    # tail 5 ms at 100/s passes, 125 ms at 200/s fails a 25 ms limit:
    # log-linear crossing is halfway in log-latency, so sqrt(2) x 100.
    steps = [(50.0, 2.0, True), (100.0, 5.0, True), (200.0, 125.0, False)]
    assert interpolate_max_rate(steps, 25.0) == pytest.approx(100.0 * 2 ** 0.5)


def test_interpolation_edges():
    assert interpolate_max_rate([(25.0, 40.0, False)], 25.0) == 0.0
    assert interpolate_max_rate([(25.0, 1.0, True), (50.0, 2.0, True)], 25.0) == 50.0
    # failed on errors or backlog while the tail met the limit
    assert interpolate_max_rate([(25.0, 1.0, True), (50.0, 3.0, False)], 25.0) == 25.0
    # never reports a rate outside the bracketing steps
    rate = interpolate_max_rate([(25.0, 24.9, True), (50.0, 1e6, False)], 25.0)
    assert 25.0 <= rate < 50.0


def _step(latencies):
    return [Outcome(index=i, due=float(i), done=float(i) + lat, status=200) for i, lat in enumerate(latencies)]


def test_backlog_test_compares_last_tenth_with_first():
    assert not backlog_grew(_step([0.010] * 100), slack_s=0.025)
    assert backlog_grew(_step([0.010 + 0.002 * i for i in range(100)]), slack_s=0.025)
    # a single slow request at the end is not a backlog
    assert not backlog_grew(_step([0.010] * 99 + [2.0]), slack_s=0.025)


def test_response_framing_waits_for_the_whole_body():
    body = b'{"outcome": "ok"}'
    wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n" % len(body) + body
    for cut in range(len(wire)):
        assert _parse_response(bytearray(wire[:cut])) is None
    status, parsed, consumed = _parse_response(bytearray(wire + b"HTTP/1.1"))
    assert (status, parsed, consumed) == (200, body, len(wire))


def test_percentile_support_rule():
    assert supports_percentile(200, 95.0) and not supports_percentile(199, 95.0)
    assert supports_percentile(1000, 99.0) and not supports_percentile(999, 99.0)
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_children_and_request_ids_propagate():
    tracer = Tracer()
    with tracer.span("parent", request_id="r1"):
        time.sleep(0.01)
        with tracer.span("child"):
            time.sleep(0.02)
    stats = tracer.layers()
    parent, child = stats["parent"], stats["child"]
    assert parent.durations[0] >= child.durations[0] + 0.009
    assert parent.self_times[0] == pytest.approx(parent.durations[0] - child.durations[0])
    assert {span[4] for span in tracer.spans()} == {"r1"}
    assert set(tracer.layers(roots=["child"])) == set()


def test_install_wraps_and_restores_and_tolerates_missing_targets():
    import repro.core.linker as linker_module

    original = linker_module.popularity_scores
    tracer = Tracer()
    assert tracer.install("repro.core.linker:popularity_scores", "pop")
    assert linker_module.popularity_scores is not original
    assert not tracer.install("repro.core.linker:no_such_function", "missing")
    tracer.uninstall()
    assert linker_module.popularity_scores is original


def test_span_cap_skips_whole_roots():
    tracer = Tracer(max_spans=2)
    for _ in range(3):
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
    assert len(tracer.spans()) == 2 and tracer.skipped_roots == 2


# ---------------------------------------------------------------------- #
# metric names
# ---------------------------------------------------------------------- #
def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    names = list(END_TO_END) + list(PER_LAYER)
    assert all(METRIC_NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    assert max(bound for _, _, bound in END_TO_END.values()) == END_TO_END["setup_s"][2]
    assert all(METRIC_NAME.match(w["name"]) for w in bench["workloads"])


def test_complete_layers_fills_every_metric():
    values = complete_layers({"trace.spans": 3})
    assert set(values) == set(PER_LAYER) and values["trace.spans"] == 3.0
    with pytest.raises(ValueError):
        complete_layers({"not.a.metric": 1.0})


def test_client_counts_a_dropped_connection_as_failed_and_recovers():
    """A server that closes the first connection without answering."""
    import socket
    import threading

    from loadclient import LoadClient, render_request

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(4)
    reply = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"

    def serve() -> None:
        first, _ = listener.accept()
        first.recv(65536)
        first.close()
        second, _ = listener.accept()
        while True:
            data = second.recv(65536)
            if not data:
                break
            second.sendall(reply)
        second.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    payload = render_request("/v1/link", b"{}")
    with LoadClient(listener.getsockname(), connections=1, timeout_s=5.0) as client:
        outcomes = client.open_loop([0.0, 0.01, 0.02], [payload] * 3)
    thread.join(timeout=5.0)
    listener.close()
    assert not thread.is_alive()
    assert [o.ok for o in outcomes] == [False, True, True]
    assert outcomes[0].error == "connection closed"
