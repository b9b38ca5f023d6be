"""``repro bench``: schema validation and a smoke run of the full pipeline."""

import copy
import dataclasses
import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    _scale_tier_bench,
    compare_bench_documents,
    run_bench,
    validate_bench_document,
)
from repro.config import DEFAULT_CONFIG


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_linking.json"
    document = run_bench(seed=5, smoke=True, workers_list=(1,), out=str(out))
    return document, out


class TestSmokeRun:
    def test_document_validates(self, smoke_document):
        document, _ = smoke_document
        assert validate_bench_document(document) == []

    def test_written_file_round_trips(self, smoke_document):
        _, out = smoke_document
        with open(out, encoding="utf-8") as handle:
            assert validate_bench_document(json.load(handle)) == []

    def test_one_pass_outputs_identical(self, smoke_document):
        document, _ = smoke_document
        assert document["reachability"]["outputs_identical"] is True

    def test_batch_rows_match_workers(self, smoke_document):
        document, _ = smoke_document
        rows = document["batch"]["results"]
        assert [row["workers"] for row in rows] == [1]
        assert rows[0]["speedup_vs_1"] == 1.0
        assert rows[0]["throughput_rps"] > 0

    def test_meta_records_inputs(self, smoke_document):
        document, _ = smoke_document
        assert document["meta"]["schema_version"] == SCHEMA_VERSION
        assert document["meta"]["smoke"] is True
        assert document["meta"]["seed"] == 5

    def test_perf_section_populated(self, smoke_document):
        """The instrumented hot paths actually reported into the snapshot."""
        document, _ = smoke_document
        counters = document["perf"]["counters"]
        assert counters.get("graph.one_pass_bfs", 0) > 0

    def test_closure_tier_has_no_build_phases(self, smoke_document):
        document, _ = smoke_document
        (tier,) = document["scale"]["tiers"]
        assert tier["backend"] == "closure"
        assert tier["index_bfs_s"] is None and tier["index_flatten_s"] is None

    def test_compact_tier_reports_build_phases(self):
        config = dataclasses.replace(DEFAULT_CONFIG, index_backend="compact")
        tier = _scale_tier_bench(200, 5, config)
        assert tier["backend"] == "compact"
        assert 0 < tier["index_bfs_s"] <= tier["index_build_s"]
        assert 0 < tier["index_flatten_s"] <= tier["index_build_s"]

    def test_requires_baseline_worker(self):
        with pytest.raises(ValueError):
            run_bench(smoke=True, workers_list=(2, 4), out=None)

    def test_snapshot_section_populated(self, smoke_document):
        """The epoch-delta protocol actually ran and stayed bit-identical."""
        document, _ = smoke_document
        snapshot = document["snapshot"]
        assert snapshot["outputs_identical"] is True
        assert snapshot["full_blob_bytes"] > 0
        assert snapshot["deltas"] > 0
        assert snapshot["resyncs"] == 0
        assert snapshot["reduction_x"] > 1.0
        assert snapshot["delta_bytes_per_refresh"] < snapshot["full_blob_bytes"]

    def test_batch_rows_flag_undersubscription(self, smoke_document):
        """workers=1 can never exceed the schedulable CPU set."""
        document, _ = smoke_document
        assert document["batch"]["results"][0]["undersubscribed"] is False

    def test_cached_section_outputs_identical(self, smoke_document):
        """The warm-cache run replays the same mentions through cached and
        uncached linkers; any ranked/degradation divergence is recorded."""
        document, _ = smoke_document
        cached = document["single_mention_cached"]
        assert cached["outputs_identical"] is True
        assert cached["mentions"] > 0
        assert cached["speedup_vs_uncached"] > 0
        assert set(cached["hit_rates"]) == {
            "candidates", "popularity", "interest", "recency",
        }
        for rate in cached["hit_rates"].values():
            assert 0.0 <= rate <= 1.0


class TestValidator:
    @pytest.fixture
    def valid(self, smoke_document):
        document, _ = smoke_document
        return copy.deepcopy(document)

    def test_non_object(self):
        assert validate_bench_document([]) == ["document is not a JSON object"]

    def test_missing_section(self, valid):
        del valid["reachability"]
        assert "missing or non-object section 'reachability'" in validate_bench_document(
            valid
        )

    def test_missing_key(self, valid):
        del valid["single_mention"]["p99_ms"]
        assert "single_mention.p99_ms missing" in validate_bench_document(valid)

    def test_wrong_schema_version(self, valid):
        valid["meta"]["schema_version"] = SCHEMA_VERSION + 1
        problems = validate_bench_document(valid)
        assert any("schema_version" in p for p in problems)

    def test_empty_batch_results(self, valid):
        valid["batch"]["results"] = []
        assert "batch.results must be a non-empty list" in validate_bench_document(
            valid
        )

    def test_malformed_batch_row(self, valid):
        del valid["batch"]["results"][0]["throughput_rps"]
        assert "batch.results[0].throughput_rps missing" in validate_bench_document(
            valid
        )

    def test_missing_snapshot_key(self, valid):
        del valid["snapshot"]["reduction_x"]
        assert "snapshot.reduction_x missing" in validate_bench_document(valid)

    def test_missing_undersubscribed_flag(self, valid):
        del valid["batch"]["results"][0]["undersubscribed"]
        assert "batch.results[0].undersubscribed missing" in validate_bench_document(
            valid
        )

    def test_missing_cached_section(self, valid):
        del valid["single_mention_cached"]
        assert (
            "missing or non-object section 'single_mention_cached'"
            in validate_bench_document(valid)
        )


class TestCompare:
    """The CI perf-regression gate: errors fail the job, warnings do not."""

    @pytest.fixture
    def docs(self, smoke_document):
        document, _ = smoke_document
        return copy.deepcopy(document), copy.deepcopy(document)

    def test_identical_documents_pass(self, docs):
        current, baseline = docs
        errors, _ = compare_bench_documents(current, baseline)
        assert errors == []

    def test_p50_regression_is_an_error(self, docs):
        current, baseline = docs
        current["single_mention"]["p50_ms"] = (
            baseline["single_mention"]["p50_ms"] * 2.0 + 1.0
        )
        errors, _ = compare_bench_documents(current, baseline, tolerance=0.25)
        assert any("single_mention.p50_ms regressed" in e for e in errors)

    def test_regression_within_tolerance_passes(self, docs):
        current, baseline = docs
        current["single_mention"]["p50_ms"] = (
            baseline["single_mention"]["p50_ms"] * 1.10
        )
        errors, _ = compare_bench_documents(current, baseline, tolerance=0.25)
        assert errors == []

    def test_cached_p50_is_gated_too(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["p50_ms"] = (
            baseline["single_mention_cached"]["p50_ms"] * 3.0 + 1.0
        )
        errors, _ = compare_bench_documents(current, baseline)
        assert any("single_mention_cached.p50_ms" in e for e in errors)

    def test_workload_mismatch_is_an_error(self, docs):
        current, baseline = docs
        baseline["meta"]["seed"] = current["meta"]["seed"] + 1
        errors, _ = compare_bench_documents(current, baseline)
        assert any("workload mismatch" in e for e in errors)

    def test_output_divergence_is_an_error(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["outputs_identical"] = False
        errors, _ = compare_bench_documents(current, baseline)
        assert any("outputs_identical" in e for e in errors)

    def test_build_time_regression_only_warns(self, docs):
        current, baseline = docs
        current["build"]["transitive_closure_parallel_s"] = (
            baseline["build"]["transitive_closure_parallel_s"] * 10.0 + 1.0
        )
        errors, warnings = compare_bench_documents(current, baseline)
        assert errors == []
        assert any("transitive_closure_parallel_s" in w for w in warnings)

    def test_tier_build_time_regression_only_warns(self, docs):
        current, baseline = docs
        tier = current["scale"]["tiers"][0]
        tier["index_build_s"] = baseline["scale"]["tiers"][0]["index_build_s"] * 2.0
        errors, warnings = compare_bench_documents(current, baseline, tolerance=0.25)
        assert errors == []
        assert any(
            f"scale tier {tier['users']}: index_build_s regressed" in w
            for w in warnings
        )

    def test_low_speedup_only_warns(self, docs):
        current, baseline = docs
        current["single_mention_cached"]["speedup_vs_uncached"] = 1.1
        errors, warnings = compare_bench_documents(current, baseline)
        assert errors == []
        assert any("speedup" in w for w in warnings)

    def _with_worker_row(self, document, speedup, undersubscribed):
        document["batch"]["results"].append(
            {
                "workers": 4,
                "seconds": 1.0,
                "throughput_rps": 100.0,
                "speedup_vs_1": speedup,
                "undersubscribed": undersubscribed,
            }
        )

    def test_subscribed_speedup_drop_is_an_error(self, docs):
        current, baseline = docs
        self._with_worker_row(baseline, speedup=3.0, undersubscribed=False)
        self._with_worker_row(current, speedup=1.0, undersubscribed=False)
        errors, _ = compare_bench_documents(current, baseline, tolerance=0.25)
        assert any("batch speedup at workers=4 dropped" in e for e in errors)

    def test_undersubscribed_speedup_drop_only_warns(self, docs):
        """A 1-core runner cannot fail the gate for lacking cores."""
        current, baseline = docs
        self._with_worker_row(baseline, speedup=3.0, undersubscribed=False)
        self._with_worker_row(current, speedup=1.0, undersubscribed=True)
        errors, warnings = compare_bench_documents(current, baseline, tolerance=0.25)
        assert errors == []
        assert any("undersubscribed: warning only" in w for w in warnings)

    def test_snapshot_divergence_is_an_error(self, docs):
        current, baseline = docs
        current["snapshot"]["outputs_identical"] = False
        errors, _ = compare_bench_documents(current, baseline)
        assert any("snapshot.outputs_identical" in e for e in errors)

    def test_low_snapshot_reduction_warns(self, docs):
        current, baseline = docs
        current["snapshot"]["reduction_x"] = 2.0
        errors, warnings = compare_bench_documents(current, baseline)
        assert errors == []
        assert any("snapshot delta reduction" in w for w in warnings)

    def test_invalid_baseline_is_an_error(self, docs):
        current, _ = docs
        errors, _ = compare_bench_documents(current, {"meta": {}})
        assert any("baseline document is invalid" in e for e in errors)

    def test_rejects_non_positive_tolerance(self, docs):
        current, baseline = docs
        with pytest.raises(ValueError):
            compare_bench_documents(current, baseline, tolerance=0.0)
