"""Multi-tenant serving benchmark: ``python -m repro.bench serve``.

Replays a synthetic query stream with *skewed selection popularity* (a
few popular tenant selections dominate, a long tail follows — the usual
shape of production traffic) through three configurations:

* ``serial_cold``   — the paper's measurement regime: one query at a
  time, buffer pool dropped before each query, no cross-query state.
* ``serial_warm``   — one query at a time, buffer pool kept warm, still
  no cross-query caches (isolates what page caching alone buys).
* ``serve_unshared``— the :class:`~repro.serve.QueryService` worker pool
  with shared caches disabled (isolates concurrency from caching).
* ``serve_shared``  — the full serving layer: worker pool + shared
  pseudo-block cache + bound memo.

Every configuration replays the *same* stream against a freshly built
cube on a fresh device, and the benchmark asserts that all of them return
identical answers before reporting.  Results land in ``BENCH_serve.json``
with throughput, p50/p95 latency, block I/O per query, and per-layer
cache hit rates, so later PRs have a perf trajectory to compare against.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import asdict, dataclass

from ..core.cube import RankingCube
from ..core.executor import RankingCubeExecutor
from ..relational.database import Database
from ..serve import QueryService
from ..workloads.queries import QueryGenerator, QuerySpec
from ..workloads.synthetic import SyntheticSpec, generate


@dataclass(frozen=True)
class ServeBenchConfig:
    """Knobs of one serving-benchmark run (fixed seed => fixed stream)."""

    num_tuples: int = 20_000
    num_queries: int = 300
    distinct_queries: int = 30
    popularity_skew: float = 1.1
    workers: int = 4
    cardinality: int = 8
    num_selection_dims: int = 3
    num_ranking_dims: int = 2
    k: int = 10
    block_size: int = 30
    buffer_capacity: int = 4096
    seed: int = 17

    @classmethod
    def smoke(cls) -> "ServeBenchConfig":
        """Fast fixed-seed configuration for CI (a few seconds)."""
        return cls(num_tuples=2_000, num_queries=60, distinct_queries=8, workers=2)


def build_query_stream(config: ServeBenchConfig, schema) -> list:
    """A stream of ``num_queries`` drawn from a zipf-popular query pool.

    Tenants reuse a finite set of (selection, ranking-function) templates;
    the zipf draw over the pool is what gives the shared caches something
    to amortize — exactly the skewed selection popularity of multi-tenant
    traffic.
    """
    pool = QueryGenerator(
        schema,
        QuerySpec(k=config.k, num_selections=2, seed=config.seed),
    ).batch(config.distinct_queries)
    ranks = range(1, len(pool) + 1)
    weights = [r ** (-config.popularity_skew) for r in ranks]
    rng = random.Random(config.seed + 1)
    return rng.choices(pool, weights=weights, k=config.num_queries)


def _build_environment(config: ServeBenchConfig):
    """Fresh device + table + cube (per scenario, for apples-to-apples)."""
    dataset = generate(
        SyntheticSpec(
            num_selection_dims=config.num_selection_dims,
            num_ranking_dims=config.num_ranking_dims,
            num_tuples=config.num_tuples,
            cardinality=config.cardinality,
            selection_distribution="zipf",
            seed=config.seed,
        )
    )
    db = Database(buffer_capacity=config.buffer_capacity)
    table = dataset.load_into(db)
    cube = RankingCube.build(table, block_size=config.block_size)
    return db, table, cube


@dataclass
class ScenarioReport:
    """One configuration's aggregate numbers over the replayed stream."""

    queries: int
    wall_s: float
    throughput_qps: float
    p50_ms: float
    p95_ms: float
    blocks_per_query: float
    device_reads_per_query: float
    pseudo_cache_hit_rate: float
    bound_memo_hit_rate: float
    shared_cache_hits_per_query: float
    query_buffer_hits_per_query: float
    cold_fetches_per_query: float


def _percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank quantile: the ``ceil(fraction * n)``-th smallest value,
    clamped to the sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered)) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


def _report(
    queries: int,
    wall_s: float,
    latencies_s: list[float],
    total_blocks: int,
    device_reads: int,
    *,
    pseudo_hit_rate: float = 0.0,
    memo_hit_rate: float = 0.0,
    shared_hits: int = 0,
    buffer_hits: int = 0,
    cold_fetches: int = 0,
) -> ScenarioReport:
    count = max(1, queries)
    return ScenarioReport(
        queries=queries,
        wall_s=wall_s,
        throughput_qps=queries / wall_s if wall_s > 0 else 0.0,
        p50_ms=_percentile(latencies_s, 0.50) * 1000.0,
        p95_ms=_percentile(latencies_s, 0.95) * 1000.0,
        blocks_per_query=total_blocks / count,
        device_reads_per_query=device_reads / count,
        pseudo_cache_hit_rate=pseudo_hit_rate,
        bound_memo_hit_rate=memo_hit_rate,
        shared_cache_hits_per_query=shared_hits / count,
        query_buffer_hits_per_query=buffer_hits / count,
        cold_fetches_per_query=cold_fetches / count,
    )


def _answers_signature(results) -> list[list[tuple[int, float]]]:
    return [[(row.tid, round(row.score, 9)) for row in r.rows] for r in results]


def run_serial(config: ServeBenchConfig, stream, cold: bool):
    """Serial executor; ``cold`` drops the buffer pool before each query."""
    db, table, cube = _build_environment(config)
    executor = RankingCubeExecutor(cube, table)
    latencies: list[float] = []
    results = []
    total_blocks = 0
    db.cold_cache()
    db.device.reset_stats()
    started = time.perf_counter()
    for query in stream:
        if cold:
            db.cold_cache()
        t0 = time.perf_counter()
        result = executor.execute(query)
        latencies.append(time.perf_counter() - t0)
        total_blocks += result.blocks_accessed
        results.append(result)
    wall = time.perf_counter() - started
    report = _report(
        len(stream), wall, latencies, total_blocks, db.device.stats.reads
    )
    return report, _answers_signature(results)


def run_service(config: ServeBenchConfig, stream, share_caches: bool):
    """The concurrent serving layer, with or without the shared caches."""
    db, table, cube = _build_environment(config)
    db.cold_cache()
    db.device.reset_stats()
    with QueryService(
        cube, table, workers=config.workers, share_caches=share_caches
    ) as service:
        started = time.perf_counter()
        results = service.run_batch(stream)
        wall = time.perf_counter() - started
        stats = service.stats
        report = _report(
            stats.queries,
            wall,
            [r.latency_s for r in stats.records],
            stats.total("blocks_accessed"),
            db.device.stats.reads,
            pseudo_hit_rate=service.cache_hit_rate(),
            memo_hit_rate=(
                service.bound_memo.stats.hit_rate if service.bound_memo else 0.0
            ),
            shared_hits=stats.total("shared_cache_hits"),
            buffer_hits=stats.total("query_buffer_hits"),
            cold_fetches=stats.total("cold_fetches"),
        )
    return report, _answers_signature(results)


def run_serve_bench(config: ServeBenchConfig) -> dict:
    """Run every scenario over one shared stream; return the JSON payload."""
    _db, _table, cube = _build_environment(config)
    schema = _table.schema
    stream = build_query_stream(config, schema)

    scenarios = {}
    signatures = {}
    scenarios["serial_cold"], signatures["serial_cold"] = run_serial(
        config, stream, cold=True
    )
    scenarios["serial_warm"], signatures["serial_warm"] = run_serial(
        config, stream, cold=False
    )
    scenarios["serve_unshared"], signatures["serve_unshared"] = run_service(
        config, stream, share_caches=False
    )
    scenarios["serve_shared"], signatures["serve_shared"] = run_service(
        config, stream, share_caches=True
    )

    reference = signatures["serial_cold"]
    equivalent = all(sig == reference for sig in signatures.values())

    # "block reads" is the physical I/O the paper's structures optimize:
    # device page reads per query.  The logical fetch counter (pseudo +
    # base block requests the executor actually issued) is reported too,
    # so cache-layer savings stay attributable even when the buffer pool
    # absorbs all physical reads.
    cold_reads = scenarios["serial_cold"].device_reads_per_query
    warm_reads = scenarios["serve_shared"].device_reads_per_query
    reduction = cold_reads / warm_reads if warm_reads > 0 else float("inf")
    cold_blocks = scenarios["serial_cold"].blocks_per_query
    warm_blocks = scenarios["serve_shared"].blocks_per_query
    logical_reduction = cold_blocks / warm_blocks if warm_blocks > 0 else float("inf")

    return {
        "benchmark": "serve",
        "config": asdict(config),
        "grid_blocks": cube.grid.num_blocks,
        "scenarios": {name: asdict(report) for name, report in scenarios.items()},
        "block_read_reduction_vs_serial_cold": reduction,
        "logical_block_reduction_vs_serial_cold": logical_reduction,
        "meets_2x_target": reduction >= 2.0,
        "equivalent_answers": equivalent,
    }


def format_serve_table(payload: dict) -> str:
    """Fixed-width human-readable view of the JSON payload."""
    headers = (
        "scenario", "qps", "p50_ms", "p95_ms", "blk/q", "reads/q", "hit%",
    )
    lines = [
        "serve: concurrent query serving with cross-query caching",
        "".join(h.rjust(14) for h in headers),
        "-" * (14 * len(headers)),
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            name.rjust(14)
            + f"{s['throughput_qps']:14.1f}"
            + f"{s['p50_ms']:14.3f}"
            + f"{s['p95_ms']:14.3f}"
            + f"{s['blocks_per_query']:14.2f}"
            + f"{s['device_reads_per_query']:14.2f}"
            + f"{100.0 * s['pseudo_cache_hit_rate']:14.1f}"
        )
    reduction = payload["block_read_reduction_vs_serial_cold"]
    reduction_str = "inf" if reduction == float("inf") else f"{reduction:.2f}x"
    lines.append(
        f"device block-read reduction vs serial_cold: {reduction_str} "
        f"({'meets' if payload['meets_2x_target'] else 'MISSES'} 2x target); "
        f"logical fetch reduction: "
        f"{payload['logical_block_reduction_vs_serial_cold']:.2f}x; "
        f"answers equivalent: {payload['equivalent_answers']}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench serve",
        description="Replay a skewed multi-tenant stream through the serving layer.",
    )
    parser.add_argument("--smoke", action="store_true", help="fast fixed-seed CI mode")
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="BENCH_serve.json", help="JSON output path")
    args = parser.parse_args(argv)

    config = ServeBenchConfig.smoke() if args.smoke else ServeBenchConfig()
    overrides = {}
    if args.tuples is not None:
        overrides["num_tuples"] = args.tuples
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = ServeBenchConfig(**{**asdict(config), **overrides})

    payload = run_serve_bench(config)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(format_serve_table(payload))
    print(f"wrote {args.out}")
    if not payload["equivalent_answers"]:
        return 1
    return 0
