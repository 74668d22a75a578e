"""Tests for the bench regression gate (``python -m repro.bench check``)."""

import copy
import json

import pytest

from repro.bench.check import (
    UnknownBenchmarkError,
    check_baseline,
    compare_payloads,
    discover_baselines,
    main,
)


def _payload(**overrides):
    base = {
        "benchmark": "serve",
        "config": {"num_tuples": 2_000, "seed": 17},
        "grid_blocks": 81,
        "scenarios": {
            "serial_cold": {
                "queries": 60,
                "wall_s": 0.5,
                "throughput_qps": 120.0,
                "p50_ms": 2.5,
                "p95_ms": 3.5,
                "blocks_per_query": 11.5,
                "device_reads_per_query": 12.7,
                "pseudo_cache_hit_rate": 0.0,
            },
            "serve_shared": {
                "queries": 60,
                "wall_s": 0.2,
                "throughput_qps": 300.0,
                "p50_ms": 1.9,
                "p95_ms": 11.8,
                "blocks_per_query": 8.7,
                "device_reads_per_query": 0.57,
                "pseudo_cache_hit_rate": 0.88,
            },
        },
        "block_read_reduction_vs_serial_cold": 22.0,
        "logical_block_reduction_vs_serial_cold": 1.3,
        "meets_2x_target": True,
        "equivalent_answers": True,
    }
    base.update(overrides)
    return base


class TestComparePayloads:
    def test_identical_payloads_have_no_violations(self):
        payload = _payload()
        assert compare_payloads(payload, copy.deepcopy(payload), "x.json") == []

    def test_timing_drift_is_ignored(self):
        fresh = _payload()
        cold = fresh["scenarios"]["serial_cold"]
        cold["wall_s"] *= 10
        cold["throughput_qps"] /= 10
        cold["p50_ms"] *= 7
        cold["p95_ms"] *= 7
        assert compare_payloads(_payload(), fresh, "x.json") == []

    def test_serial_counter_drift_beyond_tolerance_fails(self):
        fresh = _payload()
        fresh["scenarios"]["serial_cold"]["blocks_per_query"] *= 1.05
        violations = compare_payloads(_payload(), fresh, "x.json")
        assert len(violations) == 1
        assert violations[0].metric == "scenarios.serial_cold.blocks_per_query"
        # the log line names the file, the metric, and both values
        text = str(violations[0])
        assert "x.json" in text and "blocks_per_query" in text
        assert "11.5" in text

    def test_serial_counter_within_tolerance_passes(self):
        fresh = _payload()
        fresh["scenarios"]["serial_cold"]["blocks_per_query"] *= 1.005
        assert compare_payloads(_payload(), fresh, "x.json") == []

    def test_concurrent_scenario_is_looser(self):
        fresh = _payload()
        # 30% drift: fails a serial scenario, passes a concurrent one
        fresh["scenarios"]["serve_shared"]["device_reads_per_query"] *= 1.3
        assert compare_payloads(_payload(), fresh, "x.json") == []
        fresh["scenarios"]["serve_shared"]["device_reads_per_query"] *= 10
        assert compare_payloads(_payload(), fresh, "x.json")

    def test_concurrent_hit_rate_compared_absolutely(self):
        fresh = _payload()
        fresh["scenarios"]["serve_shared"]["pseudo_cache_hit_rate"] = 0.7
        assert compare_payloads(_payload(), fresh, "x.json") == []
        fresh["scenarios"]["serve_shared"]["pseudo_cache_hit_rate"] = 0.5
        violations = compare_payloads(_payload(), fresh, "x.json")
        assert [v.metric for v in violations] == [
            "scenarios.serve_shared.pseudo_cache_hit_rate"
        ]

    def test_grid_blocks_is_exact(self):
        violations = compare_payloads(
            _payload(), _payload(grid_blocks=82), "x.json"
        )
        assert [v.metric for v in violations] == ["grid_blocks"]

    def test_a_skipped_gate_is_not_comparable(self):
        skipped = "skipped(1 usable core)"
        for gate in (True, False):
            evaluated = _payload(sharded_beats_unsharded=gate)
            unevaluated = _payload(sharded_beats_unsharded=skipped)
            assert compare_payloads(evaluated, unevaluated, "x.json") == []
            assert compare_payloads(unevaluated, evaluated, "x.json") == []
        # two evaluated runs still compare exactly
        violations = compare_payloads(
            _payload(sharded_beats_unsharded=True),
            _payload(sharded_beats_unsharded=False),
            "x.json",
        )
        assert [v.metric for v in violations] == ["sharded_beats_unsharded"]

    def test_non_equivalent_answers_always_fail(self):
        violations = compare_payloads(
            _payload(), _payload(equivalent_answers=False), "x.json"
        )
        assert any(v.metric == "equivalent_answers" for v in violations)

    def test_config_drift_fails(self):
        fresh = _payload()
        fresh["config"]["num_tuples"] = 9_999
        violations = compare_payloads(_payload(), fresh, "x.json")
        assert any(v.metric == "config" for v in violations)

    def test_missing_scenario_fails(self):
        fresh = _payload()
        del fresh["scenarios"]["serve_shared"]
        violations = compare_payloads(_payload(), fresh, "x.json")
        assert any(v.metric == "scenarios.serve_shared" for v in violations)

    def test_missing_metric_fails(self):
        fresh = _payload()
        del fresh["scenarios"]["serial_cold"]["blocks_per_query"]
        violations = compare_payloads(_payload(), fresh, "x.json")
        assert any(
            v.metric == "scenarios.serial_cold.blocks_per_query"
            for v in violations
        )

    def test_infinite_ratio_matches_infinite(self):
        expected = _payload(block_read_reduction_vs_serial_cold=float("inf"))
        fresh = _payload(block_read_reduction_vs_serial_cold=float("inf"))
        assert compare_payloads(expected, fresh, "x.json") == []
        fresh = _payload(block_read_reduction_vs_serial_cold=3.0)
        assert compare_payloads(expected, fresh, "x.json")


class TestDiscoverBaselines:
    def test_discovers_and_filters_smoke(self, tmp_path):
        big = _payload()
        big["config"]["num_tuples"] = 20_000
        (tmp_path / "BENCH_big.json").write_text(json.dumps(big))
        (tmp_path / "BENCH_small.json").write_text(json.dumps(_payload()))
        (tmp_path / "not_a_baseline.json").write_text("{}")
        all_files = discover_baselines(tmp_path, smoke=False)
        assert [p.name for p in all_files] == ["BENCH_big.json", "BENCH_small.json"]
        smoke = discover_baselines(tmp_path, smoke=True)
        assert [p.name for p in smoke] == ["BENCH_small.json"]


class TestCheckBaseline:
    def test_rerun_uses_embedded_config(self, tmp_path):
        seen = {}

        def fake_runner(config):
            seen["config"] = config
            return _payload()

        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(_payload()))
        violations = check_baseline(path, runner_map={"serve": fake_runner})
        assert violations == []
        assert seen["config"] == {"num_tuples": 2_000, "seed": 17}

    def test_perturbed_fresh_run_is_caught(self, tmp_path):
        perturbed = _payload()
        perturbed["scenarios"]["serial_cold"]["device_reads_per_query"] *= 2

        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(_payload()))
        violations = check_baseline(
            path, runner_map={"serve": lambda config: perturbed}
        )
        assert [v.metric for v in violations] == [
            "scenarios.serial_cold.device_reads_per_query"
        ]

    def test_unknown_benchmark_raises(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(_payload(benchmark="nope")))
        with pytest.raises(UnknownBenchmarkError, match="nope"):
            check_baseline(path, runner_map={})


class TestCliEndToEnd:
    """The real gate against the real benchmark, smoke-sized."""

    pytestmark = [pytest.mark.slow, pytest.mark.serve]

    def test_smoke_gate_passes_then_fails_on_perturbation(self, tmp_path, capsys):
        from repro.bench.serve import ServeBenchConfig, run_serve_bench

        config = ServeBenchConfig.smoke()
        payload = run_serve_bench(config)
        baseline = tmp_path / "BENCH_serve_smoke.json"
        baseline.write_text(json.dumps(payload))

        assert main(["--baseline", str(tmp_path), "--smoke"]) == 0
        assert "within tolerance" in capsys.readouterr().out

        # perturb a deterministic serial metric beyond its tolerance:
        # the gate must exit nonzero and name the metric
        payload["scenarios"]["serial_cold"]["blocks_per_query"] *= 1.5
        baseline.write_text(json.dumps(payload))
        assert main(["--baseline", str(tmp_path), "--smoke"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "scenarios.serial_cold.blocks_per_query" in out

    def test_missing_baseline_dir_is_an_error(self, tmp_path, capsys):
        assert main(["--baseline", str(tmp_path / "nope")]) == 2

    def test_empty_baseline_dir_is_an_error(self, tmp_path, capsys):
        assert main(["--baseline", str(tmp_path)]) == 2
