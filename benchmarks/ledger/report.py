"""From measured rounds to named metrics: the end-to-end sheet, the
driver's contract metrics, and the per-layer table.

Names, units, directions and bounds of the contract metrics and of the
per-layer table live in ``BENCHMARK.json`` (read here, never repeated);
the fuller per-workload sheet ISSUE.md asks for is catalogued in
:data:`SHEET`.
"""

from __future__ import annotations

import json
import statistics
from typing import NamedTuple

from measure import best_per_op, best_rate, peak_rss_mb, percentile, ratio
from probes import Summary
from stack import CHECKOUT

BENCHMARK_JSON = CHECKOUT / "BENCHMARK.json"

READ_KINDS = ("query", "cursor", "reverse")
QUERY_WORKLOADS = ("topk_cold", "serve_hot", "shard_thread", "shard_process")
#: Two clients interleave differently run to run, so cache hit and miss
#: counts (not answers) may differ by a few; everywhere else a count that
#: does not repeat exactly is a defect.
INEXACT_COUNTS = ("serve_hot",)


def benchmark_json() -> dict:
    return json.loads(BENCHMARK_JSON.read_text())


class Metric(NamedTuple):
    name: str
    unit: str
    better: str                 # "lower" | "higher"
    bound: float | None         # share of the parent's median; None = exact
    workloads: tuple | None     # None = every workload


#: The end-to-end sheet (ISSUE.md): what a caller of the library sees.
SHEET = (
    Metric("setup_s", "s", "lower", 0.20, None),
    Metric("query_per_s", "1/s", "higher", 0.10, QUERY_WORKLOADS),
    Metric("query_p50_ms", "ms", "lower", 0.10, QUERY_WORKLOADS + ("ingest_mixed",)),
    Metric("query_p95_ms", "ms", "lower", 0.15, QUERY_WORKLOADS + ("ingest_mixed",)),
    Metric("query_p99_ms", "ms", "lower", 0.15, QUERY_WORKLOADS),
    Metric("pages_read_per_query", "count", "lower", None, None),
    Metric("enum_first_batch_p50_ms", "ms", "lower", 0.10, ("enum_reverse",)),
    Metric("enum_rows_per_s", "1/s", "higher", 0.10, ("enum_reverse",)),
    Metric("reverse_p50_ms", "ms", "lower", 0.10, ("enum_reverse",)),
    Metric("append_rows_per_s", "1/s", "higher", 0.10, ("ingest_mixed",)),
    Metric("append_p50_ms", "ms", "lower", 0.10, ("ingest_mixed",)),
    Metric("append_p95_ms", "ms", "lower", 0.15, ("ingest_mixed",)),
    Metric("peak_rss_mb", "MB", "lower", 0.10, None),
    Metric("space_amplification", "ratio", "lower", None, None),
    Metric("failed_op_ratio", "ratio", "lower", None, None),
)


class Value(NamedTuple):
    value: float | None         # None prints as n/a (too few samples)
    samples: int


def _ms(ns):
    return None if ns is None else ns / 1e6


def _best(ops, rounds, kind=None, pick=lambda latency, answer: latency):
    """One value per op of ``kind``: its best over the measured rounds."""
    wanted = [i for i, op in enumerate(ops) if kind is None or op.kind == kind]
    if not wanted:
        return []
    return best_per_op(
        [[pick(r.latency_ns[i], r.answers[i]) for i in wanted] for r in rounds]
    )


def _latency(samples, q) -> Value:
    return Value(_ms(percentile(samples, q)), len(samples))


def _rate(per_round) -> Value:
    return Value(best_rate(per_round), len(per_round))


def _count(ops, kinds) -> int:
    return sum(1 for op in ops if op.kind in kinds)


def _op_latency(ops, rounds, q, clients) -> Value:
    """The ``q``-th percentile of op latency, in ms.

    One client: over each op's best replay.  Several clients: an op's
    latency includes its wait for the other clients' ops, and its best
    replay is the lucky one where it ran alone, so the percentile is
    taken inside each round and the best round's is reported.
    """
    if clients == 1:
        return _latency(_best(ops, rounds), q)
    per_round = [percentile(r.latency_ns, q) for r in rounds]
    best = None if None in per_round else min(per_round)
    return Value(_ms(best), len(ops))


def contract_metrics(ops, rounds, setups, clients: int = 1) -> dict:
    """The metrics every workload reports to the driver (``--trace 0``).

    Every timing is a best-of (see :func:`measure.best_per_op`): set-up is
    the quickest of the run's set-ups, and with one client a latency
    percentile is taken over each op's best replay.  A one-client round's
    wall is the sum of its ops' latencies plus untimed preparation, so the
    rate is taken from the same per-op bests and a burst that hit one op
    costs that op's replay, not the whole round's.  With several clients
    latencies overlap: rate and percentiles are the best round's.
    """
    if clients == 1:
        rate = Value(len(ops) / (sum(_best(ops, rounds)) / 1e9), len(rounds))
    else:
        rate = _rate([len(ops) / (r.wall_ns / 1e9) for r in rounds])
    return {
        "setup_s": Value(min(setups), len(setups)),
        "op_per_s": rate,
        "op_p50_ms": _op_latency(ops, rounds, 50, clients),
        "op_p95_ms": _op_latency(ops, rounds, 95, clients),
        "blocks_per_op": Value(
            sum(a.blocks for a in rounds[-1].answers) / len(ops), len(ops)
        ),
        "space_amplification": Value(rounds[-1].extras["space_amplification"], 1),
        "peak_rss_mb": Value(peak_rss_mb(), 1),
    }


def sheet_metrics(name, ops, rounds, contract, attempted, failed, clients=1) -> dict:
    """The ISSUE's end-to-end sheet for one workload (absent = not issued).

    ``contract`` is :func:`contract_metrics` of the same rounds; what the
    two tables share is taken from it, not measured twice.
    """
    out = {"setup_s": contract["setup_s"]}
    reads = _count(ops, READ_KINDS)
    if name in QUERY_WORKLOADS:                     # every op is a query
        out["query_per_s"] = contract["op_per_s"]
        out["query_p50_ms"] = contract["op_p50_ms"]
        out["query_p95_ms"] = contract["op_p95_ms"]
        out["query_p99_ms"] = _op_latency(ops, rounds, 99, clients)
    else:
        queries = _best(ops, rounds, "query")
        if queries:
            out["query_p50_ms"] = _latency(queries, 50)
            out["query_p95_ms"] = _latency(queries, 95)
    out["pages_read_per_query"] = Value(
        ratio(rounds[-1].counters.get("storage.device.reads", 0), reads), reads
    )
    cursors = _best(ops, rounds, "cursor")
    if cursors:
        firsts = _best(ops, rounds, "cursor", lambda _l, a: a.first_batch_ns)
        rows = sum(a.rows for _l, a in rounds[-1].of_kind(ops, "cursor"))
        out["enum_first_batch_p50_ms"] = _latency(firsts, 50)
        out["enum_rows_per_s"] = Value(rows / (sum(cursors) / 1e9), len(cursors))
        out["reverse_p50_ms"] = _latency(_best(ops, rounds, "reverse"), 50)
    appends = _best(ops, rounds, "append")
    if appends:
        out["append_rows_per_s"] = _rate([
            sum(a.rows for _l, a in r.of_kind(ops, "append")) / (r.wall_ns / 1e9)
            for r in rounds
        ])
        out["append_p50_ms"] = _latency(appends, 50)
        out["append_p95_ms"] = _latency(appends, 95)
    out["peak_rss_mb"] = contract["peak_rss_mb"]
    out["space_amplification"] = contract["space_amplification"]
    out["failed_op_ratio"] = Value(ratio(failed, attempted), attempted)
    return out


# ----------------------------------------------------------------------
# per-layer table
# ----------------------------------------------------------------------
class TracedRun(NamedTuple):
    """Everything the per-layer table is computed from."""

    name: str
    ops: list
    rounds: list                # traced rounds
    spans: Summary              # folded over the traced rounds' ops
    epilogue_spans: Summary     # folded over the traced rounds' epilogues
    setup_spans: Summary        # folded over every (traced) set-up
    setups: int                 # how many set-ups that was
    untraced_wall_ns: float     # best untraced round
    micro: dict                 # isolated micro-runs, already named
    static: dict                # cube_bytes, num_rows, grid_blocks, raw_row_bytes
    unsharded_candidates: float | None


def layer_metrics(run: TracedRun) -> dict:
    """Every per-layer metric of ``BENCHMARK.json`` for one workload;
    a layer the workload never enters reads 0."""
    spans, setup = run.spans, run.setup_spans
    rounds, ops = run.rounds, run.ops
    n_rounds = len(rounds)
    reads = _count(ops, READ_KINDS) * n_rounds
    counters: dict = {}
    for rnd in rounds:
        for key, value in rnd.counters.items():
            counters[key] = counters.get(key, 0) + value
    answers = [a for rnd in rounds for a in rnd.answers]
    by_kind = {
        kind: [a for rnd in rounds for _l, a in rnd.of_kind(ops, kind)]
        for kind in ("query", "cursor", "reverse", "append")
    }
    rows_appended = sum(a.rows for a in by_kind["append"])
    user_bytes = rows_appended * run.static["raw_row_bytes"]
    op_ns = spans.op_ns()

    def c(key):
        return counters.get(key, 0)

    def cache(field, which):
        return c(f"serve.cache.{field}{{cache={which}}}")

    def us(ns, per):
        return ratio(ns / 1e3, per)

    def setup_s(name):
        """Seconds per set-up spent under ``name`` (all its calls)."""
        return setup.stat(name).total_ns / 1e9 / max(1, run.setups)

    def self_us(names, per=reads):
        return us(sum(spans.stat(n).self_ns for n in names), per)

    grid = ("BlockGrid.neighbors", "BlockGrid.box", "BlockGrid.sub_box",
            "BlockGrid.bid_of", "BlockGrid.coords_of")
    caches = ("PseudoBlockCache.get", "PseudoBlockCache.put", "BoundMemo.group",
              "BoundMemo.lookup", "BoundMemo.store")
    recover = run.epilogue_spans.stat("StreamIngestor.recover")
    compact = spans.stat("CubeCompactor.compact_once")
    under_compact = spans.under.get("CubeCompactor.compact_once", {})
    submit = spans.stat("QueryService.submit")
    execute = spans.stat("RankingCubeExecutor.execute")
    sharded = spans.stat("ShardedQueryService.submit").count > 0
    waits = [
        execute.start_by_op[op] - start
        for op, start in submit.start_by_op.items()
        if op in execute.start_by_op
    ]
    frames = spans.stat("wire.send_msg").count + spans.stat("wire.recv_msg").count
    cursor_rows = sum(a.rows for a in by_kind["cursor"])
    functions = sum(a.functions for a in by_kind["reverse"])
    tuples = sum(a.tuples for a in answers)
    unattributed_ns = max(0, op_ns - spans.attributed_ns())
    traced_wall = min(r.wall_ns for r in rounds)

    out = {
        "storage.device.reads_per_query": ratio(c("storage.device.reads"), reads),
        "storage.device.seq_read_ratio": ratio(
            c("storage.device.sequential_reads"), c("storage.device.reads")),
        "storage.device.read_self_us_per_query": self_us(["BlockDevice.read"]),
        "storage.device.writes_per_krow": ratio(
            c("storage.device.writes"), rows_appended / 1000),
        "storage.device.bytes_written_per_user_byte": ratio(
            c("storage.device.bytes_written"), user_bytes),
        "storage.buffer.hit_ratio": ratio(
            c("storage.buffer.hits"),
            c("storage.buffer.hits") + c("storage.buffer.misses")),
        "storage.buffer.evictions_per_query": ratio(
            c("storage.buffer.evictions"), reads),
        "storage.buffer.get_self_us_per_query": self_us(["BufferPool.get"]),
        "storage.blobs.gets_per_query": ratio(spans.stat("BlobStore.get").count, reads),
        "storage.blobs.get_self_us_per_query": self_us(["BlobStore.get"]),
        "core.chains.gets_per_query": ratio(spans.stat("ChainStore.get").count, reads),
        "core.chains.get_self_us_per_query": self_us(["ChainStore.get"]),
        "core.blocks.self_us_per_query": self_us(grid),
        "core.blocks.neighbor_calls_per_query": ratio(
            spans.stat("BlockGrid.neighbors").count, reads),
        "core.pseudo.self_us_per_query": self_us(["PseudoBlockMap.pid_of_bid"]),
        "core.cuboid.fetches_per_query": ratio(
            spans.stat("RankingCuboid.decode_pseudo_block").count, reads),
        "core.cuboid.tids_decoded_per_query": ratio(
            spans.stat("RankingCuboid.decode_pseudo_block").units, reads),
        "core.cuboid.decode_self_us_per_query": self_us(
            ["RankingCuboid.decode_pseudo_block", "RankingCuboid.get_pseudo_block"]),
        "core.base_table.fetches_per_query": ratio(
            spans.stat("BaseBlockTable.get_base_block").count, reads),
        "core.base_table.get_self_us_per_query": self_us(
            ["BaseBlockTable.get_base_block"]),
        "ranking.functions.bound_calls_per_query": ratio(
            spans.stat("ranking.bound").count, reads),
        "ranking.functions.bound_self_us_per_query": self_us(["ranking.bound"]),
        "ranking.functions.score_calls_per_query": ratio(
            spans.stat("ranking.score").count, reads),
        "ranking.functions.score_self_us_per_query": self_us(["ranking.score"]),
        "core.cube.build_s": setup_s("RankingCube.build"),
        "core.cube.plan_self_us_per_query": self_us(
            ["RankingCube.snapshot", "CubeSnapshot.covering_cuboids"]),
        "core.cube.delta_matches_self_us_per_query": self_us(
            ["CubeSnapshot.delta_matches"]),
        "core.cube.refresh_delta_us_per_row": us(
            spans.stat("RankingCube.refresh_delta").total_ns, rows_appended),
        "core.cube.bytes_per_tuple": ratio(
            run.static["cube_bytes"], run.static["num_rows"]),
        "core.executor.self_us_per_query": self_us(
            ["RankingCubeExecutor.execute", "RankingCubeExecutor.open_search",
             "ProgressiveSearch.step"]),
        "core.executor.candidates_per_query": ratio(
            sum(a.candidates for a in answers), reads),
        "core.executor.blocks_per_query": ratio(sum(a.blocks for a in answers), reads),
        "core.executor.tuples_per_query": ratio(tuples, reads),
        "core.executor.useful_tuple_ratio": ratio(
            sum(a.rows for k in READ_KINDS for a in by_kind[k]), tuples),
        "core.anyk.self_us_per_row": self_us(["AnyKCursor.next_batch"], cursor_rows),
        "core.anyk.candidates_per_row": ratio(
            sum(a.candidates for a in by_kind["cursor"]), cursor_rows),
        "core.reverse.self_us_per_function": self_us(["reverse_topk"], functions),
        "core.reverse.pruning_ratio": ratio(
            sum(a.candidates for a in by_kind["reverse"]),
            functions * run.static["grid_blocks"]),
        "core.reverse.qualifying_ratio": ratio(
            sum(a.qualifying for a in by_kind["reverse"]), functions),
        "core.compaction.compact_p50_ms": (
            statistics.median(compact.durations_ns) / 1e6
            if compact.durations_ns else 0.0),
        "core.compaction.rows_absorbed_per_s": ratio(
            compact.units, compact.total_ns / 1e9),
        "core.compaction.pages_written_per_row": ratio(
            under_compact.get("BlockDevice.write", 0), compact.units),
        "core.compaction.stall_share": ratio(compact.total_ns, op_ns),
        "ingest.wal.append_durable_us_per_batch": us(
            spans.stat("WriteAheadLog.append_durable").total_ns,
            spans.stat("WriteAheadLog.append_durable").count),
        "ingest.wal.bytes_per_row": ratio(
            sum(r.extras.get("wal_bytes", 0) for r in rounds), rows_appended),
        "ingest.stream.self_us_per_batch": self_us(
            ["StreamIngestor.append"], spans.stat("StreamIngestor.append").count),
        "ingest.stream.recover_s": ratio(
            recover.total_ns / 1e9, recover.count),
        "relational.table.insert_us_per_row": us(
            spans.stat("Table.insert_rows").total_ns,
            spans.stat("Table.insert_rows").units),
        "serve.cache.pseudo_hit_ratio": ratio(
            cache("hits", "pseudo_block"),
            cache("hits", "pseudo_block") + cache("misses", "pseudo_block")),
        "serve.cache.bound_memo_hit_ratio": ratio(
            cache("hits", "bound_memo"),
            cache("hits", "bound_memo") + cache("misses", "bound_memo")),
        "serve.cache.self_us_per_query": self_us(caches),
        "serve.cache.evictions_per_query": ratio(
            cache("evictions", "pseudo_block") + cache("evictions", "bound_memo"),
            reads),
        "serve.service.overhead_us_per_query": (
            us(max(0, op_ns - execute.total_ns), reads) if submit.count else 0.0),
        "serve.service.queue_wait_us_per_query": us(sum(waits), len(waits)),
        "serve.sharded.self_us_per_query": (
            us(unattributed_ns, reads)
            + self_us(["ShardedQueryService.submit"]) if sharded else 0.0),
        "serve.sharded.merge_rounds_per_query": ratio(c("sharded.merge_rounds"), reads),
        "serve.sharded.shard_steps_per_query": ratio(c("sharded.shard_steps"), reads),
        "serve.sharded.candidates_vs_unsharded_ratio": (
            ratio(sum(a.candidates for a in answers) / max(1, reads),
                  run.unsharded_candidates)
            if run.unsharded_candidates else 0.0),
        "serve.wire.frames_per_query": ratio(frames, reads),
        "serve.wire.bytes_per_query": ratio(
            spans.stat("pipe.send").units + spans.stat("pipe.wait").units, reads),
        "serve.wire.codec_self_us_per_query": self_us(
            ["wire.send_msg", "wire.recv_msg", "pipe.send"]),
        "serve.procpool.wait_us_per_query": us(
            spans.stat("pipe.wait").total_ns + spans.stat("pipe.poll").total_ns, reads),
        "serve.procpool.spawn_s": setup_s("ProcessShardPool.__init__"),
        "shard.builder.build_s": setup_s("build_sharded"),
        "persist.save_s": setup_s("Workspace.save") + setup_s("ShardedWorkspace.save"),
        "trace.unattributed_ratio": ratio(unattributed_ns, op_ns),
        "trace.overhead_ratio": ratio(traced_wall, run.untraced_wall_ns) - 1.0,
    }
    out.update(run.micro)
    return out


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def format_value(value) -> str:
    if value is None:
        return "n/a"
    if value == 0:
        return "0"
    return f"{value:.4g}" if abs(value) < 1e6 else f"{value:.0f}"


def print_table(title: str, rows) -> None:
    """``rows``: (name, value, unit, note) tuples."""
    print(f"-- {title}")
    width = max((len(row[0]) for row in rows), default=0)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {format_value(value):>12} {unit:<6} {note}")
