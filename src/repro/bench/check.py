"""Bench regression gate: ``python -m repro.bench check --baseline results/``.

Discovers checked-in ``BENCH_*.json`` baselines, re-runs each benchmark
from the configuration *embedded in the baseline file* (so the gate
always compares like with like, even after default configs drift), and
diffs the fresh payload against the stored one metric by metric.

Tolerances are declared per metric class, not guessed per run:

* **timing** (``wall_s``, ``*_qps``, ``*_ms``) — never compared; CI
  machines make wall-clock regressions meaningless at this scale.
* **serial scenarios** — fixed seed + serial execution is deterministic,
  so counters must match within ``SERIAL_REL_TOL`` (float dust only).
* **concurrent scenarios** — worker interleaving moves cache-stampede
  counters (a pseudo-block being decoded twice is legal), so those
  compare under ``CONCURRENT_REL_TOL`` / ``RATE_ABS_TOL``.
* **structure** (``grid_blocks``, ``config``) — exact; a drift here
  means the benchmark itself changed and the baseline must be re-blessed.
* **correctness** (``equivalent_answers``) — must be ``True`` fresh,
  full stop.
* **skipped gates** — a gate recorded as ``"skipped(<reason>)"`` on
  either side was not evaluated there (wrong host, disarmed config), so
  it is not comparable and never a violation.

Exit status is nonzero iff any violation is found, and every violation
names its metric path, both values, and the tolerance that failed — so a
red gate is actionable from the log alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

#: Serial scenarios are bit-deterministic; allow only float dust.
SERIAL_REL_TOL = 0.01
#: Concurrent scenarios: thread interleaving legitimately moves
#: stampede-sensitive counters (duplicate decodes, memo races).
CONCURRENT_REL_TOL = 0.5
#: Hit rates in concurrent scenarios, compared absolutely.
RATE_ABS_TOL = 0.25
#: Reduction ratios divide two noisy numbers; compare loosely.
RATIO_REL_TOL = 0.5

#: Metric name fragments that are wall-clock-derived and never compared.
TIMING_METRICS = (
    "wall_s",
    "throughput_qps",
    "p50_ms",
    "p95_ms",
    "tuples_per_s",
    "blocks_per_s",
    "evaluate_speedup",
)

#: Scenario names whose counters are deterministic (serial replay).
SERIAL_SCENARIOS = ("serial_cold", "serial_warm")

#: Per-query counters that stampedes can move in concurrent scenarios.
RATE_METRICS = ("pseudo_cache_hit_rate", "bound_memo_hit_rate")


class UnknownBenchmarkError(ValueError):
    """Baseline names a benchmark this gate has no runner for."""


def _run_serve(config: dict) -> dict:
    from .serve import ServeBenchConfig, run_serve_bench

    return run_serve_bench(ServeBenchConfig(**config))


def _run_build(config: dict) -> dict:
    from .build import BuildBenchConfig, run_build_bench

    return run_build_bench(BuildBenchConfig(**config))


def _run_shard(config: dict) -> dict:
    from .shard import ShardBenchConfig, run_shard_bench

    return run_shard_bench(ShardBenchConfig(**config))


def _run_vector(config: dict) -> dict:
    from .vector import VectorBenchConfig, run_vector_bench

    return run_vector_bench(VectorBenchConfig(**config))


def _run_anyk(config: dict) -> dict:
    from .anyk import AnyKBenchConfig, run_anyk_bench

    return run_anyk_bench(AnyKBenchConfig(**config))


def _run_ingest(config: dict) -> dict:
    from .ingest import IngestBenchConfig, run_ingest_bench

    return run_ingest_bench(IngestBenchConfig(**config))


def _run_adaptive(config: dict) -> dict:
    from .adaptive import AdaptiveBenchConfig, run_adaptive_bench

    return run_adaptive_bench(AdaptiveBenchConfig(**config))


#: benchmark name (payload["benchmark"]) -> fresh-run callable(config dict).
RUNNERS = {
    "serve": _run_serve,
    "build": _run_build,
    "shard": _run_shard,
    "vector": _run_vector,
    "anyk": _run_anyk,
    "ingest": _run_ingest,
    "adaptive": _run_adaptive,
}


@dataclass(frozen=True)
class Violation:
    """One metric outside tolerance; ``str()`` is the log line."""

    baseline_file: str
    metric: str
    expected: object
    actual: object
    tolerance: str

    def __str__(self) -> str:
        return (
            f"{self.baseline_file}: {self.metric}: "
            f"baseline={self.expected!r} fresh={self.actual!r} "
            f"({self.tolerance})"
        )


def _within(expected: float, actual: float, rel_tol: float) -> bool:
    if expected == actual:
        return True
    scale = max(abs(expected), abs(actual))
    if math.isinf(scale):
        return math.isinf(expected) and math.isinf(actual)
    return abs(expected - actual) <= rel_tol * scale


def _skipped(value) -> bool:
    """A gate its run did not evaluate (``"skipped(<reason>)"``)."""
    return isinstance(value, str) and value.startswith("skipped(")


def _compare_scenario(
    name: str, expected: dict, actual: dict, source: str
) -> list[Violation]:
    # Build scenarios replay a fixed seed through a deterministic
    # construction (even the parallel ones — the layout is canonical), so
    # they get serial tolerances.  Fingerprints are strings; compare exact.
    # Shard scenarios replay serially with cold caches, so their counters
    # are deterministic too — in both modes: process-mode (proc_*) merge
    # rounds are synchronous and worker stepping depends only on the
    # shipped (kth, max_steps) and its own deterministic state.
    # Vector scenarios (row_*/vector_*) replay serially with cold caches
    # under the byte-identical-answers contract, so their counters are
    # deterministic too.  The any-k / reverse scenarios (anyk_*/reverse_*)
    # are serial cold-cache cursor replays of the same kind.
    serial = (
        name in SERIAL_SCENARIOS
        or name.startswith("build_")
        or name == "unsharded"
        or name.startswith("shards_")
        or name.startswith("proc_")
        or name.startswith("row_")
        or name.startswith("vector_")
        or name.startswith("anyk_")
        or name.startswith("reverse_")
        or name.startswith("ingest_")
        or name.startswith("failover_")
        # adaptive-bench scenarios replay one fixed stream serially with
        # logical (cache-independent) page accounting
        or name == "adaptive"
        or name.startswith("static_")
    )
    violations = []
    for metric in sorted(set(expected) | set(actual)):
        if any(metric.endswith(t) or metric == t for t in TIMING_METRICS):
            continue
        exp, act = expected.get(metric), actual.get(metric)
        path = f"scenarios.{name}.{metric}"
        if exp is None or act is None:
            violations.append(
                Violation(source, path, exp, act, "metric present in only one payload")
            )
            continue
        if isinstance(exp, (str, bool)) or isinstance(act, (str, bool)):
            # non-numeric metrics (device fingerprints, flags) compare exact
            if exp != act:
                violations.append(Violation(source, path, exp, act, "exact"))
            continue
        if not serial and metric in RATE_METRICS:
            if abs(float(exp) - float(act)) > RATE_ABS_TOL:
                violations.append(
                    Violation(source, path, exp, act, f"abs tol {RATE_ABS_TOL}")
                )
            continue
        rel = SERIAL_REL_TOL if serial else CONCURRENT_REL_TOL
        if not _within(float(exp), float(act), rel):
            violations.append(Violation(source, path, exp, act, f"rel tol {rel}"))
    return violations


def compare_payloads(expected: dict, actual: dict, source: str) -> list[Violation]:
    """Diff a fresh benchmark payload against its baseline.

    Pure function over two payload dicts — the unit tests drive it with
    synthetic payloads, no benchmark run required.
    """
    violations: list[Violation] = []
    if actual.get("equivalent_answers") is not True:
        violations.append(
            Violation(
                source,
                "equivalent_answers",
                True,
                actual.get("equivalent_answers"),
                "fresh run must return serial-equivalent answers",
            )
        )
    for metric in (
        "grid_blocks",
        "parallel_identical",
        "parallel_faster",
        "shard_identical",
        "process_identical",
        "hot_shard_below_baseline",
        "early_stop_engaged",
        "process_faster_than_thread",
        "sharded_beats_unsharded",
        "enumeration_matches_oracle",
        "reverse_matches_oracle",
        "pruning_effective",
        "recovery_replay_correct",
        "failover_zero_wrong_answers",
        "recovery_time_bounded",
        "adaptive_beats_best_static",
        "repartition_triggered",
        "best_static",
    ):
        if metric not in expected:
            continue
        if _skipped(expected[metric]) or _skipped(actual.get(metric)):
            continue  # one side could not evaluate it: nothing to compare
        if expected[metric] != actual.get(metric):
            violations.append(
                Violation(
                    source, metric, expected[metric], actual.get(metric), "exact"
                )
            )
    if expected.get("config") != actual.get("config"):
        violations.append(
            Violation(
                source,
                "config",
                expected.get("config"),
                actual.get("config"),
                "exact (fresh run must replay the baseline's config)",
            )
        )
    for metric in (
        "block_read_reduction_vs_serial_cold",
        "logical_block_reduction_vs_serial_cold",
    ):
        if metric not in expected:
            continue
        exp, act = expected[metric], actual.get(metric)
        if act is None or not _within(float(exp), float(act), RATIO_REL_TOL):
            violations.append(
                Violation(source, metric, exp, act, f"rel tol {RATIO_REL_TOL}")
            )
    expected_scenarios = expected.get("scenarios", {})
    actual_scenarios = actual.get("scenarios", {})
    for name in sorted(set(expected_scenarios) | set(actual_scenarios)):
        if name not in expected_scenarios or name not in actual_scenarios:
            violations.append(
                Violation(
                    source,
                    f"scenarios.{name}",
                    name in expected_scenarios,
                    name in actual_scenarios,
                    "scenario present in only one payload",
                )
            )
            continue
        violations.extend(
            _compare_scenario(
                name, expected_scenarios[name], actual_scenarios[name], source
            )
        )
    return violations


def discover_baselines(baseline_dir: Path, smoke: bool) -> list[Path]:
    """``BENCH_*.json`` files under ``baseline_dir`` (small configs if smoke)."""
    found = sorted(baseline_dir.glob("BENCH_*.json"))
    if not smoke:
        return found
    small = []
    for path in found:
        payload = json.loads(path.read_text())
        if payload.get("config", {}).get("num_tuples", 0) <= 5_000:
            small.append(path)
    return small


def check_baseline(path: Path, runner_map=None) -> list[Violation]:
    """Re-run one baseline file's benchmark and return its violations."""
    runners = runner_map if runner_map is not None else RUNNERS
    expected = json.loads(path.read_text())
    benchmark = expected.get("benchmark")
    runner = runners.get(benchmark)
    if runner is None:
        raise UnknownBenchmarkError(
            f"{path.name}: no runner for benchmark {benchmark!r} "
            f"(known: {sorted(runners)})"
        )
    actual = runner(expected["config"])
    return compare_payloads(expected, actual, path.name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench check",
        description="Re-run checked-in benchmark baselines and fail on regression.",
    )
    parser.add_argument(
        "--baseline",
        default="results",
        help="directory holding BENCH_*.json baselines (default: results/)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="only baselines with small configs (num_tuples <= 5000)",
    )
    args = parser.parse_args(argv)

    baseline_dir = Path(args.baseline)
    if not baseline_dir.is_dir():
        print(f"bench check: baseline directory not found: {baseline_dir}")
        return 2
    baselines = discover_baselines(baseline_dir, smoke=args.smoke)
    if not baselines:
        print(
            f"bench check: no BENCH_*.json baselines in {baseline_dir}"
            + (" matching --smoke" if args.smoke else "")
        )
        return 2

    all_violations: list[Violation] = []
    for path in baselines:
        print(f"bench check: re-running {path.name} ...")
        violations = check_baseline(path)
        all_violations.extend(violations)
        status = "OK" if not violations else f"{len(violations)} violation(s)"
        print(f"bench check: {path.name}: {status}")
    if all_violations:
        print()
        for violation in all_violations:
            print(f"REGRESSION {violation}")
        return 1
    print(f"bench check: {len(baselines)} baseline(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
