"""The shared base-block cache: one cache per service, same answers.

A :class:`~repro.serve.cache.BlockCache` attached to an executor lets a
query stream decode each base block once per table generation.  These
tests pin what that may and may not change:

* a row-engine :class:`QueryService` stream returns bit-identical rows
  and identical ``blocks_accessed`` / ``candidates_examined`` /
  ``tuples_examined`` to a bare executor (same pseudo-cache setup, no
  block cache), cold and warm, across a delta append and a compaction;
* a warm stream reads no base block at all, and a cached executor
  decodes a block once even for queries on different cells;
* a :class:`RoutedQueryService`'s cube path and its own executor share
  one cache keyed by ``(table uid, bid)``, and every shard endpoint owns
  one that ``cold_cache`` drops;
* the key's table ``uid`` stays unique across a pickle round trip.

Unmarked on purpose: this is the fast equivalence check of the tier-1
gate's first step.
"""

import pickle
import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.core import BaseBlockTable, BlockGrid, RankingCube, RankingCubeExecutor
from repro.core.compaction import CubeCompactor
from repro.core.cube import ScannedRows, group_rows
from repro.core.executor import QueryAbortedError
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import (
    BlockCache,
    PseudoBlockCache,
    QueryService,
    RoutedQueryService,
    ShardedQueryService,
)
from repro.shard import build_sharded
from repro.storage import (
    READ_ERROR,
    BlockDevice,
    BufferPool,
    FaultInjector,
    FaultRule,
    FaultyBlockDevice,
    RecordCodec,
    RetryPolicy,
)
from repro.workloads.oracle import brute_force_topk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(rng, count):
    return [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]


def make_env(seed=5, count=400, db=None):
    rows = make_rows(random.Random(seed), count)
    db = db if db is not None else Database(buffer_capacity=256)
    table = db.load_table("R", SCHEMA, rows)
    for name in SCHEMA.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(table, block_size=16)
    return db, table, cube, rows


def make_queries(seed, count=16):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        selections = {"a1": rng.randrange(CARDS[0])}
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(CARDS[1])
        fn = LinearFunction(["n1", "n2"], [rng.random() + 0.1, rng.random() + 0.1])
        queries.append(TopKQuery(rng.randint(1, 10), selections, fn))
    return queries


def work(result):
    """Everything a block cache must leave unchanged about one answer."""
    return (
        [(row.score, row.tid) for row in result.rows],
        result.blocks_accessed,
        result.candidates_examined,
        result.tuples_examined,
    )


class Bare:
    """A bare executor with its own pseudo cache, hooked to the cube's
    invalidation exactly as a service hooks its own — so a stream run
    through it in the service's order sees the same pseudo-cache hits."""

    def __init__(self, cube, table):
        self.pseudo_cache = PseudoBlockCache()
        cube.add_invalidation_listener(self.pseudo_cache.invalidate_cuboids)
        self.executor = RankingCubeExecutor(
            cube, table, pseudo_cache=self.pseudo_cache
        )

    def run(self, queries):
        return [self.executor.execute(query) for query in queries]


def assert_same_work(served, bare):
    assert [work(r) for r in served] == [work(r) for r in bare]


# ----------------------------------------------------------------------
# the key's uid
# ----------------------------------------------------------------------
def test_an_unpickled_table_draws_a_fresh_uid():
    grid = BlockGrid(("n1", "n2"), ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0)))
    pool = BufferPool(BlockDevice(page_size=256), capacity=16)

    def build(tids, points):
        rows = ScannedRows(
            (), np.array(tids), np.array(points),
            np.empty((len(tids), 0), np.int64),
        )
        return BaseBlockTable.from_runs(pool, grid, group_rows(grid, [], rows)[0])

    original = build([0, 1], [(0.1, 0.2), (0.7, 0.9)])
    blob = pickle.dumps(original)
    later = build([2], [(0.3, 0.3)])
    loaded = pickle.loads(blob)
    # every uid issued before the load is smaller: a process that loads
    # a table and then builds one cannot hand both the same cache key
    assert loaded.uid not in (original.uid, later.uid)
    assert loaded.uid > later.uid > original.uid
    assert loaded.get_base_block(grid.locate((0.1, 0.2))) == (
        original.get_base_block(grid.locate((0.1, 0.2)))
    )


# ----------------------------------------------------------------------
# decode once
# ----------------------------------------------------------------------
class CountingCodec(RecordCodec):
    """Logs every record it decodes whole."""

    def __init__(self, fmt):
        super().__init__(fmt)
        self.decoded: list[tuple] = []

    def unpack(self, data, count, offset=0, keys=None):
        records = super().unpack(data, count, offset, keys)
        self.decoded += records
        return records


def test_a_cached_executor_decodes_a_block_once():
    _db, table, cube, _rows = make_env(seed=9)
    base = cube.base_table
    codec = base._store.codec = CountingCodec(base._store.codec.fmt)
    fn = LinearFunction(["n1", "n2"], [1.0, 1.0])
    queries = [TopKQuery(10, {"a1": a1}, fn) for a1 in (0, 1)]

    def bids_decoded() -> Counter:
        bids = Counter(cube.grid.locate(record[1:]) for record in codec.decoded)
        codec.decoded.clear()
        return bids

    # without a cache each query decodes only its own qualifying tuples:
    # the blocks they came from are the blocks it evaluated
    bare = RankingCubeExecutor(cube, table)
    expected, evaluated = [], []
    for query in queries:
        expected.append(work(bare.execute(query)))
        evaluated.append(set(bids_decoded()))
    shared = evaluated[0] & evaluated[1]
    assert shared, "the two cells must evaluate a common block"
    sizes = {bid: len(base.get_base_block(bid)) for bid in evaluated[0] | evaluated[1]}
    bids_decoded()

    cache = BlockCache()
    cached = RankingCubeExecutor(cube, table, block_cache=cache)
    assert [work(cached.execute(query)) for query in queries] == expected
    # every evaluated block decoded whole, once, for both cells
    assert bids_decoded() == Counter(sizes)
    assert cache.stats.hits == len(shared)
    # a warm repeat decodes nothing
    assert [work(cached.execute(query)) for query in queries] == expected
    assert not codec.decoded


def test_a_fault_mid_decode_leaves_no_entry():
    injector = FaultInjector(3, [FaultRule(READ_ERROR, probability=1.0)])
    device = FaultyBlockDevice(BlockDevice(), injector)
    db = Database(device=device, retry_policy=RetryPolicy(max_attempts=1))
    injector.enabled = False  # loading/building must not trip the rule
    _db, table, cube, rows = make_env(db=db)
    cache = BlockCache()
    executor = RankingCubeExecutor(cube, table, block_cache=cache)
    # no selection: the first read of the query is a base block's
    query = TopKQuery(5, {}, LinearFunction(["n1", "n2"], [1.0, 0.5]))
    db.cold_cache()
    injector.enabled = True
    with pytest.raises(QueryAbortedError):
        executor.execute(query)
    assert len(cache) == 0
    injector.disarm()
    result = executor.execute(query)
    assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
        SCHEMA, rows, query
    )
    assert len(cache) == result.blocks_accessed


# ----------------------------------------------------------------------
# a served stream equals a bare executor, cold and warm
# ----------------------------------------------------------------------
class TestServiceEquivalence:
    def test_cold_and_warm_rounds(self):
        _db, table, cube, _rows = make_env()
        stream = make_queries(11)
        bare = Bare(cube, table)
        with QueryService(cube, table, workers=1) as service:
            assert service.executor.block_cache is service.block_cache
            assert_same_work(service.run_batch(stream), bare.run(stream))
            reads = cube.base_table.access_count
            assert_same_work(service.run_batch(stream), bare.run(stream))
            # the bare executor read its blocks; the warm service read none
            warm = service.stats.records[len(stream):]
            assert cube.base_table.access_count - reads == sum(
                record.base_block_reads for record in warm
            )
            assert service.block_cache.stats.hits >= sum(
                record.base_block_reads for record in warm
            )

    def test_an_append_keeps_the_cache_and_shows_the_delta(self):
        db, table, cube, rows = make_env()
        stream = make_queries(13)
        bare = Bare(cube, table)
        with QueryService(cube, table, workers=1) as service:
            assert_same_work(service.run_batch(stream), bare.run(stream))
            resident = len(service.block_cache)
            appended = make_rows(random.Random(99), 60)
            table.insert_rows(appended)
            assert cube.refresh_delta(table) == len(appended)
            # an append never touches the base table: nothing to drop
            assert len(service.block_cache) == resident
            served = service.run_batch(stream)
            assert_same_work(served, bare.run(stream))
        everything = rows + appended
        for query, result in zip(stream, served):
            assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
                SCHEMA, everything, query
            )

    def test_a_compaction_misses_by_uid(self):
        db, table, cube, rows = make_env()
        stream = make_queries(14)
        bare = Bare(cube, table)
        with QueryService(cube, table, workers=1) as service:
            service.run_batch(stream)
            bare.run(stream)
            appended = make_rows(random.Random(98), 60)
            table.insert_rows(appended)
            cube.refresh_delta(table)
            old_uid = cube.base_table.uid
            CubeCompactor(cube, db.pool).compact_once()
            assert cube.base_table.uid != old_uid
            misses = service.block_cache.stats.misses
            served = service.run_batch(stream)
            assert service.block_cache.stats.misses > misses
            assert_same_work(served, bare.run(stream))
            # the new generation's blocks are cached under the new uid
            uids = {key[0] for key in service.block_cache._entries}
            assert uids == {old_uid, cube.base_table.uid}
        everything = rows + appended
        for query, result in zip(stream, served):
            assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
                SCHEMA, everything, query
            )

    @pytest.mark.timeout(120)
    def test_concurrent_workers_share_one_cache(self):
        """More workers than cores and a short switch interval: the rows
        stay the bare executor's, and the cache's tuple book still equals
        what it holds (a lost update in put/evict would break it)."""
        _db, table, cube, _rows = make_env()
        stream = make_queries(17, count=24) * 3
        bare = RankingCubeExecutor(cube, table)
        expected = [work(bare.execute(query))[0] for query in stream]
        cache = BlockCache(capacity_blocks=8)  # small: evictions race inserts
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryService(cube, table, workers=6, block_cache=cache) as service:
                served = service.run_batch(stream)
        finally:
            sys.setswitchinterval(interval)
        assert [work(r)[0] for r in served] == expected
        assert cache.resident_tuples == sum(len(b) for b in cache._entries.values())
        assert cache.stats.evictions > 0

    def test_routed_paths_share_one_cache(self):
        _db, table, cube, _rows = make_env()
        stream = make_queries(15)
        bare = RankingCubeExecutor(cube, table)
        expected = [work(bare.execute(q))[0] for q in stream]
        with RoutedQueryService(cube, table, workers=1) as service:
            cube_path = service.router.paths["cube"]
            assert cube_path.executor.block_cache is service.block_cache
            assert service.executor.block_cache is service.block_cache
            got = [cube_path.executor.execute(q) for q in stream]
            assert [work(r)[0] for r in got] == expected
            assert {key[0] for key in service.block_cache._entries} == {
                cube.base_table.uid
            }
            assert all(len(key) == 2 for key in service.block_cache._entries)
            served = service.run_batch(stream)
        assert [work(r)[0] for r in served] == expected


def test_each_shard_endpoint_owns_a_block_cache():
    rows = make_rows(random.Random(21), 300)
    cube = build_sharded(SCHEMA, rows, 2, block_size=8)
    stream = make_queries(16)
    with ShardedQueryService(cube, workers=1) as service:
        endpoints = [
            service._transport.handle(shard_id)
            for shard_id in service._transport.shard_ids
        ]
        for endpoint in endpoints:
            assert endpoint.executor.block_cache is endpoint.block_cache
        rounds = [service.run_batch(stream) for _ in range(2)]
        assert all(endpoint.block_cache.stats.hits for endpoint in endpoints)
        service.cold_cache()
        assert not any(len(endpoint.block_cache) for endpoint in endpoints)
    for results in rounds:
        for query, result in zip(stream, results):
            assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
                SCHEMA, rows, query
            )
