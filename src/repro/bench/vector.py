"""Vectorized-executor benchmark: ``python -m repro.bench vector``.

Replays one fixed-seed query stream (half linear, half Lp-distance
ranking functions) through three serial configurations:

* ``row_executor``    — the paper's per-tuple scalar evaluate step.
* ``vector_executor`` — the same queries through the columnar batched
  kernels of :mod:`repro.vector` (``use_vector=True``).
* ``vector_cached``   — the vector path with a shared
  :class:`~repro.serve.cache.BlockCache`, so repeated blocks
  skip the fetch + decode entirely.

All three must return **byte-identical** answers (the vector engine's
equivalence contract); the payload records ``equivalent_answers`` and
the regression gate refuses a fresh run where it is false.  Logical
counters (``blocks_per_query``, ``tuples_per_query``) are deterministic
for the fixed seed and serve as the gate's serial-tolerance metrics.

A kernel microbenchmark then isolates the evaluate step itself: every
base block is pre-fetched, and the scalar scoring loop races the
batched ``eval_batch`` + ``topk_select`` pipeline over identical blocks.
``evaluate_speedup`` is the headline number; full (non ``--smoke``) runs
fail when it misses the 5x target.  Results land in
``BENCH_vector.json``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

from ..core.cube import RankingCube
from ..core.executor import ExecutorTrace, RankingCubeExecutor
from ..relational.database import Database
from ..serve.cache import BlockCache
from ..vector.kernels import eval_scores, topk_select
from ..vector.layout import ColumnarBlock
from ..workloads.queries import QueryGenerator, QuerySpec
from ..workloads.synthetic import SyntheticSpec, generate

#: Full runs must beat the row evaluate step by at least this factor.
SPEEDUP_TARGET = 5.0


@dataclass(frozen=True)
class VectorBenchConfig:
    """Knobs of one vector-benchmark run (fixed seed => fixed stream).

    ``block_size`` is deliberately larger than the serving benchmarks
    use: batched kernels amortize per-block dispatch over the block's
    tuples, and the interesting regime is the one where blocks actually
    hold a batch.
    """

    num_tuples: int = 40_000
    num_queries: int = 120
    cardinality: int = 6
    num_selection_dims: int = 3
    num_ranking_dims: int = 2
    k: int = 10
    block_size: int = 200
    buffer_capacity: int = 8192
    kernel_repeats: int = 5
    seed: int = 23

    @classmethod
    def smoke(cls) -> "VectorBenchConfig":
        """Fast fixed-seed configuration for CI (a few seconds)."""
        return cls(
            num_tuples=4_000, num_queries=30, block_size=100, kernel_repeats=2
        )


def build_query_stream(config: VectorBenchConfig, schema) -> list:
    """Fixed-seed stream mixing the two exactly-vectorized families."""
    half = max(1, config.num_queries // 2)
    linear = QueryGenerator(
        schema,
        QuerySpec(k=config.k, num_selections=2, seed=config.seed),
    ).batch(half)
    lp = QueryGenerator(
        schema,
        QuerySpec(
            k=config.k,
            num_selections=2,
            function_family="lp",
            p=2.0,
            seed=config.seed + 1,
        ),
    ).batch(config.num_queries - half)
    return linear + lp


def _build_environment(config: VectorBenchConfig):
    """Fresh device + table + cube (per scenario, for apples-to-apples)."""
    dataset = generate(
        SyntheticSpec(
            num_selection_dims=config.num_selection_dims,
            num_ranking_dims=config.num_ranking_dims,
            num_tuples=config.num_tuples,
            cardinality=config.cardinality,
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
    blocks_per_query: float
    tuples_per_query: float
    candidates_per_query: float
    vector_blocks_per_query: float
    columnar_hit_rate: float


def _answers_signature(results) -> list:
    """Exact (bitwise) answer identity: raw score floats, tids, counters."""
    return [
        (
            [(row.tid, row.score) for row in r.rows],
            r.blocks_accessed,
            r.tuples_examined,
            r.candidates_examined,
        )
        for r in results
    ]


def run_scenario(
    config: VectorBenchConfig, stream, use_vector: bool, cached: bool
):
    """Serial cold-cache replay through one executor configuration."""
    db, table, cube = _build_environment(config)
    block_cache = BlockCache() if cached else None
    executor = RankingCubeExecutor(
        cube, table, use_vector=use_vector, block_cache=block_cache
    )
    results = []
    total_blocks = total_tuples = total_candidates = vector_blocks = 0
    started = time.perf_counter()
    for query in stream:
        db.cold_cache()
        trace = ExecutorTrace()
        result = executor.execute(query, trace=trace)
        total_blocks += result.blocks_accessed
        total_tuples += result.tuples_examined
        total_candidates += result.candidates_examined
        vector_blocks += trace.vector_blocks
        results.append(result)
    wall = time.perf_counter() - started
    count = max(1, len(stream))
    report = ScenarioReport(
        queries=len(stream),
        wall_s=wall,
        throughput_qps=len(stream) / wall if wall > 0 else 0.0,
        blocks_per_query=total_blocks / count,
        tuples_per_query=total_tuples / count,
        candidates_per_query=total_candidates / count,
        vector_blocks_per_query=vector_blocks / count,
        columnar_hit_rate=(
            block_cache.stats.hit_rate if block_cache is not None else 0.0
        ),
    )
    return report, _answers_signature(results)


def run_kernel_bench(config: VectorBenchConfig) -> dict:
    """Evaluate-step microbenchmark over pre-fetched blocks.

    Both engines score every tuple of every non-empty base block with
    the same ranking function (no selection, the evaluate step's pure
    arithmetic); I/O and decode are paid up front so the race isolates
    scoring + top-k selection.
    """
    _db, table, cube = _build_environment(config)
    state = cube.snapshot()
    fn = QueryGenerator(
        table.schema, QuerySpec(k=config.k, num_selections=0, seed=config.seed)
    ).generate().ranking
    positions = state.grid.project(fn.dims)
    num_dims = state.grid.num_dims

    row_blocks = []
    col_blocks = []
    for bid in range(state.grid.num_blocks):
        records = state.base_table.get_base_block(bid)
        if records:
            row_blocks.append(records)
            col_blocks.append(ColumnarBlock.from_records(records, num_dims))

    k = config.k
    repeats = max(1, config.kernel_repeats)

    row_started = time.perf_counter()
    for _ in range(repeats):
        for records in row_blocks:
            scored = []
            for tid, values in records:
                point = [values[p] for p in positions]
                scored.append((fn.score(point), tid))
            scored.sort()
            del scored[k:]
    row_s = time.perf_counter() - row_started

    vec_started = time.perf_counter()
    for _ in range(repeats):
        for block in col_blocks:
            scores = eval_scores(fn, block, positions)
            topk_select(scores, block.tids, k)
    vec_s = time.perf_counter() - vec_started

    blocks_timed = len(row_blocks) * repeats
    tuples_timed = sum(len(r) for r in row_blocks) * repeats
    return {
        "blocks": len(row_blocks),
        "tuples": sum(len(r) for r in row_blocks),
        "repeats": repeats,
        "row_wall_s": row_s,
        "vector_wall_s": vec_s,
        "row_blocks_per_s": blocks_timed / row_s if row_s > 0 else 0.0,
        "vector_blocks_per_s": blocks_timed / vec_s if vec_s > 0 else 0.0,
        "row_tuples_per_s": tuples_timed / row_s if row_s > 0 else 0.0,
        "vector_tuples_per_s": tuples_timed / vec_s if vec_s > 0 else 0.0,
    }


def run_vector_bench(config: VectorBenchConfig) -> dict:
    """Run every scenario over one shared stream; return the JSON payload."""
    _db, table, cube = _build_environment(config)
    stream = build_query_stream(config, table.schema)

    scenarios = {}
    signatures = {}
    scenarios["row_executor"], signatures["row_executor"] = run_scenario(
        config, stream, use_vector=False, cached=False
    )
    scenarios["vector_executor"], signatures["vector_executor"] = run_scenario(
        config, stream, use_vector=True, cached=False
    )
    scenarios["vector_cached"], signatures["vector_cached"] = run_scenario(
        config, stream, use_vector=True, cached=True
    )

    reference = signatures["row_executor"]
    equivalent = all(sig == reference for sig in signatures.values())

    kernel = run_kernel_bench(config)
    speedup = (
        kernel["row_wall_s"] / kernel["vector_wall_s"]
        if kernel["vector_wall_s"] > 0
        else float("inf")
    )

    return {
        "benchmark": "vector",
        "config": asdict(config),
        "grid_blocks": cube.grid.num_blocks,
        "scenarios": {name: asdict(report) for name, report in scenarios.items()},
        "kernel": kernel,
        "evaluate_speedup": speedup,
        "meets_speedup_target": speedup >= SPEEDUP_TARGET,
        "equivalent_answers": equivalent,
    }


def format_vector_table(payload: dict) -> str:
    """Fixed-width human-readable view of the JSON payload."""
    headers = ("scenario", "qps", "blk/q", "tup/q", "vec-blk/q", "col-hit%")
    lines = [
        "vector: columnar batched execution vs the row executor",
        "".join(h.rjust(14) for h in headers),
        "-" * (14 * len(headers)),
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            name.rjust(14)
            + f"{s['throughput_qps']:14.1f}"
            + f"{s['blocks_per_query']:14.2f}"
            + f"{s['tuples_per_query']:14.1f}"
            + f"{s['vector_blocks_per_query']:14.2f}"
            + f"{100.0 * s['columnar_hit_rate']:14.1f}"
        )
    kernel = payload["kernel"]
    lines.append(
        f"kernel evaluate: row {kernel['row_tuples_per_s']:.0f} tup/s vs "
        f"vector {kernel['vector_tuples_per_s']:.0f} tup/s over "
        f"{kernel['blocks']} blocks x{kernel['repeats']}"
    )
    lines.append(
        f"evaluate speedup: {payload['evaluate_speedup']:.2f}x "
        f"({'meets' if payload['meets_speedup_target'] else 'MISSES'} "
        f"{SPEEDUP_TARGET:g}x target); "
        f"answers byte-identical: {payload['equivalent_answers']}"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench vector",
        description="Race the columnar batched engine against the row executor.",
    )
    parser.add_argument("--smoke", action="store_true", help="fast fixed-seed CI mode")
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="BENCH_vector.json", help="JSON output path")
    args = parser.parse_args(argv)

    config = VectorBenchConfig.smoke() if args.smoke else VectorBenchConfig()
    overrides = {}
    if args.tuples is not None:
        overrides["num_tuples"] = args.tuples
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = VectorBenchConfig(**{**asdict(config), **overrides})

    payload = run_vector_bench(config)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(format_vector_table(payload))
    print(f"wrote {args.out}")
    if not payload["equivalent_answers"]:
        return 1
    # the throughput target is enforced on full runs only: smoke sizes are
    # too small for stable timing on shared CI machines
    if not args.smoke and not payload["meets_speedup_target"]:
        return 1
    return 0
