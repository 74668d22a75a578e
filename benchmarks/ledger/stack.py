"""The ledger's one adapter onto the system under test.

**Only this module imports ``repro``.**  Workloads, probes and the runner
reach the stack through the names below, so a refactor that renames an
entry point is repaired here (and in ``probes.declared``) and nowhere
else.  Every constructor is called with its defaults — the ledger
measures whatever the default path is — except the sizes the workload
definitions fix (tuples, block size, shard count, compaction threshold)
and the single ``mode="process"``.

The surface is listed in README.md ("Call surface").
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import sys
from pathlib import Path
from typing import NamedTuple

#: Root of the checkout this file sits in (``benchmarks/ledger/stack.py``).
CHECKOUT = Path(__file__).resolve().parents[2]
_SRC = CHECKOUT / "src"
if not (_SRC / "repro" / "__init__.py").is_file():
    # The benchmark measures the program built from this checkout's
    # sources; an installed copy from elsewhere would be another program.
    raise ImportError(f"no system under test at {_SRC / 'repro'}")
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import (  # noqa: E402
    AnyKCursor,
    BaseBlockTable,
    BlockGrid,
    ChainStore,
    CubeCompactor,
    CubeSnapshot,
    ProgressiveSearch,
    PseudoBlockMap,
    RankingCube,
    RankingCubeExecutor,
    RankingCuboid,
    ReverseTopKQuery,
    simplex_grid_family,
)
from repro.core import reverse as reverse_module  # noqa: E402
from repro.ingest import StreamIngestor, WriteAheadLog  # noqa: E402
from repro.persist import ShardedWorkspace, Workspace  # noqa: E402
from repro.ranking import LinearFunction, LpDistance  # noqa: E402
from repro.relational import Database, Table, TopKQuery  # noqa: E402
from repro.serve import (  # noqa: E402
    BoundMemo,
    ProcessShardPool,
    PseudoBlockCache,
    QueryService,
    ShardedQueryService,
    wire,
)
from repro.shard import builder as shard_builder  # noqa: E402
from repro.storage import BlobStore, BlockDevice, BufferPool  # noqa: E402
from repro.vector import kernels  # noqa: E402
from repro.workloads import (  # noqa: E402
    QueryGenerator,
    QuerySpec,
    SyntheticSpec,
    brute_force_ranked,
    brute_force_reverse_topk,
    brute_force_rows,
    generate,
)

#: Ranking-function classes the workloads draw from (probed per subclass).
RANKING_FUNCTION_CLASSES = (LinearFunction, LpDistance)

#: Seed of everything that is part of a workload's *definition* — the
#: dataset, the zipf query pool, the cells an op list covers.  ``--seed``
#: drives only the streams generated over them.
DATASET_SEED = 17
K = 10
BLOCK_SIZE = 30
BUFFER_CAPACITY = 4096
ZIPF_POOL = 30
ZIPF_SKEW = 1.1
REVERSE_STEPS = 6          # 7-function simplex family over two dims
REVERSE_TARGET_RANK = 5
TABLE = "R"


# ----------------------------------------------------------------------
# generated inputs
# ----------------------------------------------------------------------
def dataset(num_tuples: int, seed: int = DATASET_SEED):
    """``D<n>``: 3 zipf selection dims of cardinality 8, 2 uniform
    ranking dims."""
    return generate(
        SyntheticSpec(
            num_selection_dims=3,
            num_ranking_dims=2,
            num_tuples=num_tuples,
            cardinality=8,
            selection_distribution="zipf",
            seed=seed,
        )
    )


def selection_cells(schema) -> list[dict]:
    """Every two-dimension equality selection (``s=2``), in fixed order."""
    names = list(schema.selection_names)
    cells = []
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            for a in range(schema.attribute(first).cardinality):
                for b in range(schema.attribute(second).cardinality):
                    cells.append({first: a, second: b})
    return cells


def fixed_cells(schema, count: int) -> list[dict]:
    """``count`` cells in an order fixed by :data:`DATASET_SEED`, cycling
    when ``count`` exceeds the 192 there are."""
    cells = selection_cells(schema)
    random.Random(DATASET_SEED).shuffle(cells)
    return [cells[i % len(cells)] for i in range(count)]


def mixed_functions(schema, count: int, rng: random.Random, l2_share: float = 0.2):
    """``count`` ranking functions in ``rng`` order: the paper's balanced
    linear function (``u=1``), and for exactly ``l2_share`` of them an L2
    distance to a random target (a quota, not a coin per op, so every
    seed's op list holds the same number of the dearer kind)."""
    dims = list(schema.ranking_names)
    distances = round(count * l2_share)
    functions = [
        LpDistance(dims, [rng.random() for _ in dims], p=2.0)
        for _ in range(distances)
    ] + [LinearFunction(dims, [1.0] * len(dims)) for _ in range(count - distances)]
    rng.shuffle(functions)
    return functions


def topk_query(selections: dict, function) -> TopKQuery:
    return TopKQuery(K, selections, function)


def fresh(query: TopKQuery) -> TopKQuery:
    """An equal query that is a distinct object (op-to-span linking keys
    on identity, and a stream repeats its pool's members)."""
    return dataclasses.replace(query)


def zipf_stream(schema, count: int, rng: random.Random) -> list[TopKQuery]:
    """``count`` queries over the fixed 30-query pool with exact zipf(1.1)
    quotas, in ``rng`` order.

    Quotas instead of draws, and a pool fixed by :data:`DATASET_SEED`:
    one pool member carries a quarter of the stream and a cell's cost
    varies tenfold with its density, so a seed-drawn pool moves
    throughput by more than any regression bound.
    """
    pool = QueryGenerator(
        schema, QuerySpec(k=K, num_selections=2, seed=DATASET_SEED)
    ).batch(ZIPF_POOL)
    weights = [rank ** -ZIPF_SKEW for rank in range(1, len(pool) + 1)]
    scale = count / sum(weights)
    quotas = [int(w * scale) for w in weights]
    # largest remainders take the rounding slack, most popular first
    by_remainder = sorted(
        range(len(pool)), key=lambda i: (quotas[i] - weights[i] * scale, i)
    )
    for i in by_remainder[: count - sum(quotas)]:
        quotas[i] += 1
    stream = [pool[i] for i, quota in enumerate(quotas) for _ in range(quota)]
    rng.shuffle(stream)
    return [fresh(query) for query in stream]


def appended_rows(count: int, seed: int) -> list[tuple]:
    """``count`` rows from the dataset's distribution, drawn from ``seed``."""
    return dataset(count, seed=seed).rows


def reverse_family(schema):
    return simplex_grid_family(list(schema.ranking_names), REVERSE_STEPS)


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------
class Answer(NamedTuple):
    """What one op returned, reduced to what the ledger hashes and counts."""

    sig: tuple                # hashed across rounds, compared with the oracle
    rows: int = 0             # rows handed to the caller
    blocks: int = 0
    candidates: int = 0
    tuples: int = 0
    functions: int = 0        # reverse: candidate functions counted
    qualifying: int = 0       # reverse: functions the target qualifies for
    first_batch_ns: int = 0   # any-k: open_search + first next_batch


def _pairs(rows) -> tuple:
    return tuple((row.tid, row.score) for row in rows)


def topk_answer(result) -> Answer:
    return Answer(
        sig=_pairs(result.rows),
        rows=len(result.rows),
        blocks=result.blocks_accessed,
        candidates=result.candidates_examined,
        tuples=result.tuples_examined,
    )


def enumerate_answer(executor, query, batches: int, batch: int, clock) -> Answer:
    """One any-k session: ``open_search`` -> ``next_batch`` x n -> ``close``."""
    started = clock()
    cursor = executor.open_search(query)
    rows = cursor.next_batch(batch)
    first = clock() - started
    for _ in range(batches - 1):
        rows.extend(cursor.next_batch(batch))
    live = cursor.search.result
    cursor.close()
    return Answer(
        sig=_pairs(rows),
        rows=len(rows),
        blocks=live.blocks_accessed,
        candidates=live.candidates_examined,
        tuples=live.tuples_examined,
        first_batch_ns=first,
    )


def reverse_answer(executor, query: ReverseTopKQuery) -> Answer:
    # through the module, so the traced pass's patch is what gets called
    result = reverse_module.reverse_topk(executor, query)
    return Answer(
        sig=(tuple(result.qualifying), tuple(result.target_scores)),
        rows=len(result.qualifying),
        blocks=result.blocks_accessed,
        candidates=result.candidates_examined,
        tuples=result.tuples_examined,
        functions=len(query.functions) if result.target_matches else 0,
        qualifying=len(result.qualifying),
    )


def reverse_query(executor, selections: dict, family, forward_index: int):
    """A reverse query whose target sits near the rank-k boundary: the
    rank-5 tuple of one family member's forward top-k, so some members
    accept it early and others reject it early.  ``None`` for an empty
    cell."""
    forward = executor.execute(topk_query(selections, family[forward_index]))
    if not forward.rows:
        return None
    target = forward.rows[min(REVERSE_TARGET_RANK, len(forward.rows)) - 1]
    return ReverseTopKQuery(target.tid, K, selections, family)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
def oracle_topk(schema, rows, query) -> tuple:
    return _pairs(brute_force_rows(schema, rows, query))


def oracle_ranked(schema, rows, query, depth: int) -> tuple:
    return _pairs(brute_force_ranked(schema, rows, query, depth))


def oracle_reverse(schema, rows, query: ReverseTopKQuery) -> tuple:
    return tuple(brute_force_reverse_topk(schema, rows, query))


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------
_SHARD_LABEL = re.compile(r"shard=[^,}]*,?")


def _merge_counters(into: dict, registry) -> None:
    """Add a registry's series into ``into``, shards summed together."""
    for key, value in registry.snapshot().items():
        key = _SHARD_LABEL.sub("", key).replace(",}", "}").replace("{}", "")
        into[key] = into.get(key, 0) + value


def raw_row_bytes(schema) -> int:
    """User bytes of one tuple: eight per attribute."""
    return 8 * len(schema)


class _OneCube:
    """What the ledger reads off a stack with one database and one cube
    (``db``, ``table``, ``cube`` set by the subclass)."""

    def counters(self) -> dict:
        out: dict = {}
        _merge_counters(out, self.db.device.registry)
        return out

    def device_bytes(self) -> int:
        return self.db.total_size_in_bytes

    def num_rows(self) -> int:
        return self.table.num_rows

    def cube_bytes(self) -> int:
        return self.cube.size_in_bytes

    def grid_blocks(self) -> int:
        return self.cube.grid.num_blocks

    def base_table(self):
        return self.cube.base_table


class CubeStack(_OneCube):
    """One database, one table, one full cube — and optionally the
    thread-pooled service in front of it."""

    def __init__(self, data, serve_workers: int = 0):
        self.schema = data.schema
        self.rows = data.rows
        self.db = Database(buffer_capacity=BUFFER_CAPACITY)
        self.table = self.db.load_table(TABLE, data.schema, data.rows)
        self.cube = RankingCube.build(self.table, block_size=BLOCK_SIZE)
        self.executor = RankingCubeExecutor(self.cube, self.table)
        self.service = (
            QueryService(self.cube, self.table, workers=serve_workers)
            if serve_workers
            else None
        )

    def cold(self) -> None:
        self.db.cold_cache()

    def close(self) -> None:
        if self.service is not None:
            self.service.close()


class ShardStack:
    """``build_sharded`` + ``ShardedQueryService`` in thread or process mode."""

    def __init__(self, data, num_shards: int, process: bool):
        self.schema = data.schema
        self.rows = data.rows
        # through the module, so the traced pass's patch is what gets called
        self.cube = shard_builder.build_sharded(
            data.schema, data.rows, num_shards, block_size=BLOCK_SIZE
        )
        mode = {"mode": "process"} if process else {}
        self.service = ShardedQueryService(self.cube, workers=2, **mode)

    def counters(self) -> dict:
        out: dict = {}
        for shard in self.cube.shards:
            _merge_counters(out, shard.db.device.registry)
        _merge_counters(out, self.service.registry)
        stats = self.service.stats
        out["sharded.merge_rounds"] = stats.total("merge_rounds")
        out["sharded.shard_steps"] = stats.total("shard_steps")
        return out

    def device_bytes(self) -> int:
        return sum(s.db.total_size_in_bytes for s in self.cube.shards)

    def num_rows(self) -> int:
        return self.cube.num_rows

    def cube_bytes(self) -> int:
        return sum(s.cube.size_in_bytes for s in self.cube.shards if s.cube)

    def grid_blocks(self) -> int:
        return max(s.cube.grid.num_blocks for s in self.cube.shards if s.cube)

    def base_table(self):
        return next(s.cube.base_table for s in self.cube.shards if s.cube)

    def close(self) -> None:
        self.service.close()


class IngestStack(_OneCube):
    """A workspace with a cube, a WAL-backed ingestor and a reader."""

    def __init__(self, data, workdir: Path, compact_threshold: int):
        self.schema = data.schema
        self.rows = list(data.rows)
        self.db = Database(buffer_capacity=BUFFER_CAPACITY)
        self.table = self.db.load_table(TABLE, data.schema, data.rows)
        self.cube = RankingCube.build(self.table, block_size=BLOCK_SIZE)
        self.workspace = Workspace(self.db)
        self.workspace.add_cube(TABLE, self.cube)
        self.snapshot_path = workdir / "snapshot.rcube"
        self.wal_path = workdir / "ingest.wal"
        for stale in (self.snapshot_path, self.wal_path):
            stale.unlink(missing_ok=True)
        self.workspace.save(self.snapshot_path)
        self.compact_threshold = compact_threshold
        self.ingestor = StreamIngestor(
            self.workspace, TABLE, self.wal_path,
            compact_threshold=compact_threshold,
        )
        self.executor = RankingCubeExecutor(self.cube, self.table)

    def append(self, batch) -> Answer:
        count = self.ingestor.append(batch)
        self.rows.extend(batch)
        return Answer(sig=(count, self.table.num_rows), rows=count)

    def compactions(self) -> int:
        return self.ingestor.compactor.runs

    def recover(self):
        """``close()`` then ``StreamIngestor.recover`` from the initial
        snapshot and the WAL; returns the recovered stack's table and an
        executor over its cube."""
        self.ingestor.close()
        recovered = StreamIngestor.recover(
            self.snapshot_path, TABLE, self.wal_path,
            compact_threshold=self.compact_threshold,
        )
        self.ingestor = recovered
        return recovered.table, RankingCubeExecutor(recovered.cube, recovered.table)

    def wal_bytes(self) -> int:
        return os.path.getsize(self.wal_path)

    def close(self) -> None:
        self.ingestor.close()


def unsharded_candidates(shard_stack: ShardStack, queries) -> float:
    """Frontier candidates per query when the same stream runs on one
    unsharded cube over the same rows (the sharded runs' reference)."""
    executor = CubeStack(shard_stack).executor
    total = sum(executor.execute(query).candidates_examined for query in queries)
    return total / max(1, len(queries))


# ----------------------------------------------------------------------
# isolated micro-runs (layers off the default path, or invisible in situ)
# ----------------------------------------------------------------------
def kernel_micro(base_table, schema, clock, max_blocks: int = 200) -> dict:
    """Row scoring beside the columnar kernels over the same base blocks.

    The kernels are off the default path; these numbers say what a PR
    that makes them the default has to beat, per tuple and per block.
    """
    function = LinearFunction(list(schema.ranking_names), [1.0, 1.0])
    positions = base_table.grid.project(function.dims)
    blocks = [records for _bid, records in base_table.blocks()][:max_blocks]
    tuples = sum(len(records) for records in blocks)
    if not tuples:
        return {}
    started = clock()
    for records in blocks:
        for record in records:
            function.score([record[1 + p] for p in positions])
    row_ns = clock() - started
    started = clock()
    decoded = [
        kernels.decode_block(
            [(r[0], tuple(r[1:])) for r in records], base_table.grid.num_dims
        )
        for records in blocks
    ]
    decode_ns = clock() - started
    started = clock()
    scored = [kernels.eval_scores(function, block, positions) for block in decoded]
    eval_ns = clock() - started
    started = clock()
    for block, scores in zip(decoded, scored):
        kernels.topk_select(scores, kernels.gather_tids(block), K)
    select_ns = clock() - started
    return {
        "ranking.functions.score_ns_per_tuple": row_ns / tuples,
        "vector.kernels.eval_ns_per_tuple": eval_ns / tuples,
        "vector.kernels.decode_us_per_block": decode_ns / 1e3 / len(blocks),
        "vector.kernels.topk_select_us_per_block": select_ns / 1e3 / len(blocks),
    }


def wire_micro(clock, frames: int = 2000) -> float:
    """Microseconds per framed round trip over a local pipe: a
    ``StepBatch`` out, a ``SearchBatch``-sized reply back, echoed by a
    thread in this process (no worker compute in the number)."""
    import multiprocessing
    import threading

    near, far = multiprocessing.Pipe()
    reply = wire.SearchBatch(
        request_id=1,
        scored=[(0.5, i) for i in range(64)],
        best_unseen=0.75,
        exhausted=False,
        steps=8,
    )

    def echo():
        for _ in range(frames):
            wire.recv_msg(far)
            wire.send_msg(far, reply)

    thread = threading.Thread(target=echo)
    thread.start()
    request = wire.StepBatch(request_id=1, kth=0.6, max_steps=8)
    started = clock()
    for _ in range(frames):
        wire.send_msg(near, request)
        wire.recv_msg(near)
    elapsed = clock() - started
    thread.join()
    near.close()
    far.close()
    return elapsed / 1e3 / frames
