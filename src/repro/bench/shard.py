"""Sharded-serving benchmark: ``python -m repro.bench shard``.

Replays one skewed query stream against an unsharded baseline and
against 1/2/4/8-way sharded deployments (same rows, same global tids),
measuring what horizontal sharding buys under the scatter-gather merge:

* **blocks/query** — logical block fetches summed over consulted shards;
* **device reads/query** — physical page reads, total and on the *hot*
  shard (the per-query maximum over shards: the number that bounds
  per-machine I/O pressure in a real deployment);
* **merge work** — rounds and shard steps of the global frontier loop,
  plus the candidates a naive gather (full local top-k per shard, no
  early stop) would have examined — the gap is the early-stop saving.

Each shard count runs in both serving modes (``modes`` config field /
``--mode`` flag): ``shards_N`` scenarios step the shards inside one
interpreter, ``proc_N`` scenarios run the process-per-shard tier
(each shard's stack in its own worker process, length-prefixed pickle
protocol).  Identity gates are unconditional — every scenario, either
mode, must return byte-identical answers (``shard_identical`` /
``process_identical``, exact gates in ``bench check``).  The wall-clock
comparisons ``process_faster_than_thread`` and ``sharded_beats_unsharded``
are evaluated only on hosts with at least two usable cores (on one core
a process per shard cannot beat anything) and only when the config arms
them; a run that did not evaluate one records ``"skipped(<reason>)"``,
never ``true``.  Only ``sharded_beats_unsharded`` binds the exit code:
``process_faster_than_thread`` is reported, with the measured
process/thread q/s ratio per shard count beside it, but thread mode
makes its in-process shard calls on the query's own thread and a serial
replay gives a process per shard nothing to overlap, so on this stream
the ratio is below 1 by construction.

Every scenario replays serially with cold caches before each query (the
paper's measurement regime).  Results land in ``BENCH_shard.json``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass

from ..core.cube import RankingCube
from ..core.executor import RankingCubeExecutor
from ..relational.database import Database
from ..serve import ShardedQueryService
from ..shard import build_sharded
from .serve import ServeBenchConfig, _percentile, build_query_stream
from ..workloads.synthetic import SyntheticSpec, generate


@dataclass(frozen=True)
class ShardBenchConfig:
    """Knobs of one sharded-serving benchmark run (fixed seed).

    ``shard_counts`` and ``modes`` are comma-joined strings (not
    tuples/lists) so the config survives a JSON round-trip
    byte-identically — ``bench check`` compares the embedded config
    exactly.  ``enforce_speedup`` arms the wall-clock comparisons
    (``process_faster_than_thread`` / ``sharded_beats_unsharded``); even
    armed they are evaluated only on hosts with two or more usable
    cores, and the smoke config disarms them because worker-process
    overheads dominate at toy sizes.  The identity gates bind always,
    everywhere.
    """

    num_tuples: int = 20_000
    num_queries: int = 200
    distinct_queries: int = 30
    popularity_skew: float = 1.1
    workers: int = 4
    shard_counts: str = "1,2,4,8"
    modes: str = "thread,process"
    enforce_speedup: bool = True
    cardinality: int = 8
    num_selection_dims: int = 3
    num_ranking_dims: int = 2
    k: int = 10
    block_size: int = 30
    buffer_capacity: int = 4096
    seed: int = 23

    @classmethod
    def smoke(cls) -> "ShardBenchConfig":
        """Fast fixed-seed configuration for CI (a few seconds)."""
        return cls(
            num_tuples=2_000,
            num_queries=40,
            distinct_queries=8,
            workers=2,
            shard_counts="1,2,4",
            enforce_speedup=False,
        )

    def counts(self) -> list[int]:
        return [int(c) for c in self.shard_counts.split(",") if c]

    def mode_list(self) -> list[str]:
        modes = [m.strip() for m in self.modes.split(",") if m.strip()]
        for mode in modes:
            if mode not in ("thread", "process"):
                raise ValueError(f"unknown serving mode {mode!r}")
        return modes


def _usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


@dataclass
class ShardScenarioReport:
    """One deployment's aggregate numbers over the replayed stream."""

    num_shards: int
    mode: str
    queries: int
    wall_s: float
    throughput_qps: float
    p50_ms: float
    p95_ms: float
    blocks_per_query: float
    device_reads_per_query: float
    hot_shard_reads_per_query: float
    candidates_per_query: float
    naive_candidates_per_query: float
    merge_rounds_per_query: float
    shard_steps_per_query: float


def _dataset(config: ShardBenchConfig):
    return generate(
        SyntheticSpec(
            num_selection_dims=config.num_selection_dims,
            num_ranking_dims=config.num_ranking_dims,
            num_tuples=config.num_tuples,
            cardinality=config.cardinality,
            selection_distribution="zipf",
            seed=config.seed,
        )
    )


def _stream(config: ShardBenchConfig, schema):
    serve_config = ServeBenchConfig(
        num_queries=config.num_queries,
        distinct_queries=config.distinct_queries,
        popularity_skew=config.popularity_skew,
        k=config.k,
        seed=config.seed,
    )
    return build_query_stream(serve_config, schema)


def _signature(results) -> list[list[tuple[int, float]]]:
    return [[(row.tid, round(row.score, 9)) for row in r.rows] for r in results]


def run_unsharded(config: ShardBenchConfig, dataset, stream):
    """Serial cold-cache baseline on one device (the paper's regime)."""
    db = Database(buffer_capacity=config.buffer_capacity)
    table = dataset.load_into(db)
    cube = RankingCube.build(table, block_size=config.block_size)
    executor = RankingCubeExecutor(cube, table)
    latencies, results = [], []
    blocks = candidates = 0
    db.cold_cache()
    db.device.reset_stats()
    started = time.perf_counter()
    for query in stream:
        db.cold_cache()
        t0 = time.perf_counter()
        result = executor.execute(query)
        latencies.append(time.perf_counter() - t0)
        blocks += result.blocks_accessed
        candidates += result.candidates_examined
        results.append(result)
    wall = time.perf_counter() - started
    count = max(1, len(stream))
    reads = db.device.stats.reads
    report = ShardScenarioReport(
        num_shards=1,
        mode="serial",
        queries=len(stream),
        wall_s=wall,
        throughput_qps=len(stream) / wall if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p95_ms=_percentile(latencies, 0.95) * 1000.0,
        blocks_per_query=blocks / count,
        device_reads_per_query=reads / count,
        hot_shard_reads_per_query=reads / count,
        candidates_per_query=candidates / count,
        naive_candidates_per_query=candidates / count,
        merge_rounds_per_query=0.0,
        shard_steps_per_query=0.0,
    )
    return report, _signature(results)


def _naive_candidates(config: ShardBenchConfig, cube, stream) -> int:
    """What a naive gather would cost: every consulted shard computes its
    full local top-k (untimed — reporting only).  Depends only on the
    deployment layout, not on the serving mode."""
    naive = 0
    for query in stream:
        for shard_id in cube.shard_map.shards_for_query(query.selections):
            shard = cube.shards[shard_id]
            if shard.cube is None:
                continue
            local = RankingCubeExecutor(shard.cube, shard.table).execute(query)
            naive += local.candidates_examined
    return naive


def run_sharded(
    config: ShardBenchConfig,
    dataset,
    stream,
    num_shards: int,
    mode: str = "thread",
    naive: int | None = None,
):
    """Serial cold-cache replay through the scatter-gather service.

    ``mode="process"`` serves the same deployment through the
    process-per-shard tier; cold-cache eviction then goes through the
    service (the workers' buffer pools are not reachable from here).
    Returns ``(report, signatures, naive)`` so callers benchmarking both
    modes can reuse the (mode-independent) naive-gather pass.
    """
    cube = build_sharded(
        dataset.schema,
        dataset.rows,
        num_shards,
        block_size=config.block_size,
        buffer_capacity=config.buffer_capacity,
    )
    latencies, results = [], []
    hot_reads = 0
    with ShardedQueryService(
        cube, workers=config.workers, share_caches=False, mode=mode
    ) as service:
        started = time.perf_counter()
        for query in stream:
            service.cold_cache()
            t0 = time.perf_counter()
            result = service.submit(query).result()
            latencies.append(time.perf_counter() - t0)
            hot_reads += max(
                (io.device_reads for io in (result.shard_io or {}).values()),
                default=0,
            )
            results.append(result)
        wall = time.perf_counter() - started
        stats = service.stats
    if naive is None:
        naive = _naive_candidates(config, cube, stream)
    count = max(1, len(stream))
    report = ShardScenarioReport(
        num_shards=num_shards,
        mode=mode,
        queries=len(stream),
        wall_s=wall,
        throughput_qps=len(stream) / wall if wall > 0 else 0.0,
        p50_ms=_percentile(latencies, 0.50) * 1000.0,
        p95_ms=_percentile(latencies, 0.95) * 1000.0,
        blocks_per_query=stats.total("blocks_accessed") / count,
        device_reads_per_query=(
            sum(
                io.device_reads
                for r in results
                for io in (r.shard_io or {}).values()
            )
            / count
        ),
        hot_shard_reads_per_query=hot_reads / count,
        candidates_per_query=stats.total("candidates_examined") / count,
        naive_candidates_per_query=naive / count,
        merge_rounds_per_query=stats.total("merge_rounds") / count,
        shard_steps_per_query=stats.total("shard_steps") / count,
    )
    return report, _signature(results), naive


def run_shard_bench(config: ShardBenchConfig) -> dict:
    """Run every deployment over one shared stream; return JSON payload."""
    dataset = _dataset(config)
    stream = _stream(config, dataset.schema)
    modes = config.mode_list()

    scenarios: dict[str, ShardScenarioReport] = {}
    signatures: dict[str, list] = {}
    scenarios["unsharded"], signatures["unsharded"] = run_unsharded(
        config, dataset, stream
    )
    for num_shards in config.counts():
        naive = None
        if "thread" in modes:
            name = f"shards_{num_shards}"
            scenarios[name], signatures[name], naive = run_sharded(
                config, dataset, stream, num_shards, mode="thread"
            )
        if "process" in modes:
            name = f"proc_{num_shards}"
            scenarios[name], signatures[name], naive = run_sharded(
                config, dataset, stream, num_shards, mode="process", naive=naive
            )

    reference = signatures["unsharded"]
    shard_identical = all(sig == reference for sig in signatures.values())
    process_identical = all(
        signatures[name] == reference
        for name in signatures
        if name.startswith("proc_")
    )
    baseline = scenarios["unsharded"]
    thread_multi = [
        r
        for name, r in scenarios.items()
        if name.startswith("shards_") and r.num_shards > 1
    ]
    proc_multi = [
        r
        for name, r in scenarios.items()
        if name.startswith("proc_") and r.num_shards > 1
    ]
    hot_shard_below_baseline = bool(thread_multi) and all(
        r.hot_shard_reads_per_query < baseline.device_reads_per_query
        for r in thread_multi
    )
    early_stop_engaged = bool(thread_multi) and all(
        r.candidates_per_query < r.naive_candidates_per_query
        for r in thread_multi
    )

    # Wall-clock comparisons: meaningful only with real parallel hardware
    # and both modes measured — otherwise reported as skipped, with why.
    cores = _usable_cores()
    if not config.enforce_speedup:
        skipped = "skipped(enforce_speedup is off in this config)"
    elif cores < 2:
        skipped = f"skipped({cores} usable core)"
    elif not proc_multi:
        skipped = "skipped(no multi-shard process scenario was run)"
    else:
        skipped = None
    thread_by_shards = {r.num_shards: r for r in thread_multi}
    process_vs_thread = {
        str(r.num_shards): (
            r.throughput_qps / thread_by_shards[r.num_shards].throughput_qps
        )
        for r in proc_multi
        if r.num_shards in thread_by_shards
    }
    process_faster_than_thread = (
        skipped
        or (not process_vs_thread and "skipped(thread mode was not run)")
        or all(ratio > 1.0 for ratio in process_vs_thread.values())
    )
    sharded_beats_unsharded = skipped or any(
        r.throughput_qps > baseline.throughput_qps for r in proc_multi
    )

    return {
        "benchmark": "shard",
        "config": asdict(config),
        "scenarios": {name: asdict(r) for name, r in scenarios.items()},
        "cpu_cores": cores,
        "shard_identical": shard_identical,
        "process_identical": process_identical,
        "equivalent_answers": shard_identical,
        "hot_shard_below_baseline": hot_shard_below_baseline,
        "early_stop_engaged": early_stop_engaged,
        "process_vs_thread_qps_ratio": process_vs_thread,
        "process_faster_than_thread": process_faster_than_thread,
        "sharded_beats_unsharded": sharded_beats_unsharded,
    }


def format_shard_table(payload: dict) -> str:
    """Fixed-width human-readable view of the JSON payload."""
    headers = (
        "scenario", "qps", "p50_ms", "blk/q", "reads/q", "hot/q", "steps/q",
    )
    lines = [
        "shard: scatter-gather serving vs the unsharded baseline",
        "".join(h.rjust(12) for h in headers),
        "-" * (12 * len(headers)),
    ]
    for name, s in payload["scenarios"].items():
        lines.append(
            name.rjust(12)
            + f"{s['throughput_qps']:12.1f}"
            + f"{s['p50_ms']:12.3f}"
            + f"{s['blocks_per_query']:12.2f}"
            + f"{s['device_reads_per_query']:12.2f}"
            + f"{s['hot_shard_reads_per_query']:12.2f}"
            + f"{s['shard_steps_per_query']:12.2f}"
        )
    lines.append(
        f"identical answers: {payload['shard_identical']}; "
        f"hot shard below unsharded baseline: "
        f"{payload['hot_shard_below_baseline']}; "
        f"early-stop merge engaged: {payload['early_stop_engaged']}"
    )
    lines.append(
        f"process identical: {payload['process_identical']}; "
        f"process beats thread: {payload['process_faster_than_thread']}; "
        f"sharded beats unsharded: {payload['sharded_beats_unsharded']} "
        f"({payload['cpu_cores']} core(s))"
    )
    if payload["process_vs_thread_qps_ratio"]:
        lines.append(
            "process/thread q/s by shard count: "
            + ", ".join(
                f"{shards}: {ratio:.2f}"
                for shards, ratio in payload["process_vs_thread_qps_ratio"].items()
            )
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench shard",
        description="Compare sharded scatter-gather serving against one device.",
    )
    parser.add_argument("--smoke", action="store_true", help="fast fixed-seed CI mode")
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--queries", type=int, default=None)
    parser.add_argument("--shards", default=None, help="comma list, e.g. 1,2,4,8")
    parser.add_argument(
        "--mode",
        choices=("thread", "process", "both"),
        default=None,
        help="serving mode(s) to benchmark (default: both)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", default="BENCH_shard.json", help="JSON output path")
    args = parser.parse_args(argv)

    config = ShardBenchConfig.smoke() if args.smoke else ShardBenchConfig()
    overrides = {}
    if args.tuples is not None:
        overrides["num_tuples"] = args.tuples
    if args.queries is not None:
        overrides["num_queries"] = args.queries
    if args.shards is not None:
        overrides["shard_counts"] = args.shards
    if args.mode is not None:
        overrides["modes"] = (
            "thread,process" if args.mode == "both" else args.mode
        )
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = ShardBenchConfig(**{**asdict(config), **overrides})

    payload = run_shard_bench(config)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(format_shard_table(payload))
    print(f"wrote {args.out}")
    if not payload["shard_identical"] or not payload["process_identical"]:
        return 1
    # a skipped comparison is a (truthy) string: it neither passes nor fails
    if not payload["sharded_beats_unsharded"]:
        return 1
    return 0
