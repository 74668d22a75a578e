"""Tests for the concurrent serving layer (repro.serve.service)."""

import random

import pytest

from repro.core import RankingCube, RankingCubeExecutor
from repro.core.executor import QueryAbortedError
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import (
    BoundMemo,
    PseudoBlockCache,
    QueryRecord,
    QueryService,
    ServiceClosedError,
    ServiceStats,
)
from repro.storage import (
    READ_ERROR,
    BlockDevice,
    FaultInjector,
    FaultRule,
    FaultyBlockDevice,
    RetryPolicy,
)
from repro.workloads.queries import QueryGenerator, QuerySpec
from repro.workloads.synthetic import SyntheticSpec, generate

pytestmark = pytest.mark.serve

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(seed, count=400):
    rng = random.Random(seed)
    return [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]


def make_queries(seed, count=24):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        selections = {"a1": rng.randrange(CARDS[0])}
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(CARDS[1])
        fn = LinearFunction(["n1", "n2"], [rng.random() + 0.1, rng.random() + 0.1])
        queries.append(TopKQuery(rng.randint(1, 10), selections, fn))
    return queries


def make_env(seed=7, rows=None, buffer_capacity=256):
    db = Database(buffer_capacity=buffer_capacity)
    table = db.load_table("R", SCHEMA, rows or make_rows(seed))
    cube = RankingCube.build(table, block_size=16)
    return db, table, cube


def signature(result):
    return [(r.tid, round(r.score, 9)) for r in result.rows]


def zipf_dataset(num_tuples, seed):
    """Three cardinality-8 selection dims with zipf-popular values."""
    return generate(
        SyntheticSpec(
            num_tuples=num_tuples,
            cardinality=8,
            selection_distribution="zipf",
            seed=seed,
        )
    )


def zipf_stream(schema, distinct, count, seed, k=10, skew=1.1):
    """``count`` queries drawn zipf-popular from ``distinct`` two-selection
    templates: skewed tenant traffic, what the shared caches amortize."""
    pool = QueryGenerator(
        schema, QuerySpec(k=k, num_selections=2, seed=seed)
    ).batch(distinct)
    weights = [rank ** -skew for rank in range(1, len(pool) + 1)]
    return random.Random(seed + 1).choices(pool, weights=weights, k=count)


class TestServiceEquivalence:
    def test_batch_matches_serial_executor(self):
        db, table, cube = make_env()
        serial = RankingCubeExecutor(cube, table)
        queries = make_queries(11)
        expected = [signature(serial.execute(q)) for q in queries]
        with QueryService(cube, table, workers=4) as service:
            got = [signature(r) for r in service.run_batch(queries)]
        assert got == expected

    def test_repeated_queries_hit_shared_cache(self):
        db, table, cube = make_env()
        query = make_queries(3, count=1)[0]
        with QueryService(cube, table, workers=2) as service:
            service.run_batch([query] * 12)
            assert service.cache_hit_rate() > 0.5
            assert service.stats.total("shared_cache_hits") > 0
            assert service.bound_memo.stats.hits > 0

    def test_submit_returns_future(self):
        db, table, cube = make_env()
        serial = RankingCubeExecutor(cube, table)
        query = make_queries(5, count=1)[0]
        with QueryService(cube, table, workers=2) as service:
            future = service.submit(query)
            assert signature(future.result()) == signature(serial.execute(query))

    def test_single_worker_still_valid(self):
        db, table, cube = make_env()
        queries = make_queries(13, count=6)
        serial = RankingCubeExecutor(cube, table)
        expected = [signature(serial.execute(q)) for q in queries]
        with QueryService(cube, table, workers=1) as service:
            assert [signature(r) for r in service.run_batch(queries)] == expected

    def test_share_caches_false_disables_layers(self):
        db, table, cube = make_env()
        with QueryService(cube, table, workers=2, share_caches=False) as service:
            assert service.pseudo_cache is None
            assert service.bound_memo is None
            service.run_batch(make_queries(17, count=4))
            assert service.cache_hit_rate() == 0.0

    def test_injected_caches_are_used(self):
        db, table, cube = make_env()
        cache = PseudoBlockCache(capacity_entries=8)
        memo = BoundMemo(capacity=4)
        query = make_queries(19, count=1)[0]
        with QueryService(
            cube, table, workers=2, pseudo_cache=cache, bound_memo=memo
        ) as service:
            service.run_batch([query] * 6)
        assert cache.stats.hits > 0
        assert memo.stats.hits > 0


class TestServingGate:
    def test_shared_serving_cuts_device_reads_2x(self):
        """A 60-query zipf stream over 2,000 rows, served through shared
        caches, reads at least 2x fewer device pages than a serial replay
        that drops the buffer pool before every query (609 -> 28), fetches
        fewer blocks than any serial replay (the shared pseudo-block cache
        and bound memo at work: 692 -> 521), and answers identically."""
        dataset = zipf_dataset(2_000, seed=17)
        stream = zipf_stream(dataset.schema, distinct=8, count=60, seed=17)

        def fresh_env():
            db = Database(buffer_capacity=4096)
            table = dataset.load_into(db)
            cube = RankingCube.build(table, block_size=30)
            db.cold_cache()
            db.device.reset_stats()
            return db, table, cube

        answers, work = {}, {}
        for cold in (True, False):
            db, table, cube = fresh_env()
            executor = RankingCubeExecutor(cube, table)
            answers[cold], totals = [], [0, 0, 0]
            for query in stream:
                if cold:
                    db.cold_cache()
                result = executor.execute(query)
                answers[cold].append(signature(result))
                totals[0] += result.blocks_accessed
                totals[1] += result.candidates_examined
                totals[2] += result.tuples_examined
            work[cold] = (*totals, db.device.stats.reads)
        # (blocks, candidates, tuples, device reads) of each serial replay
        assert work[True] == (692, 692, 585, 609)
        assert work[False] == (692, 692, 585, 28)
        assert answers[False] == answers[True]

        db, table, cube = fresh_env()
        with QueryService(cube, table, workers=2) as service:
            served = service.run_batch(stream)
            shared_blocks = service.stats.total("blocks_accessed")
        assert [signature(r) for r in served] == answers[True]
        assert work[True][3] >= 2 * db.device.stats.reads
        assert shared_blocks < work[True][0]


class TestInvalidation:
    def test_delta_append_invalidates_and_serves_fresh_rows(self):
        db, table, cube = make_env()
        # a tuple that dominates every selection cell
        winner_by_cell = [
            (a1, a2, 0.0, 0.0) for a1 in range(CARDS[0]) for a2 in range(CARDS[1])
        ]
        query = TopKQuery(3, {"a1": 0}, LinearFunction(["n1", "n2"], [1.0, 1.0]))
        with QueryService(cube, table, workers=2) as service:
            before = service.run_batch([query] * 4)[-1]
            assert len(service.pseudo_cache) > 0
            first_new_tid = table.num_rows
            table.insert_rows(winner_by_cell)
            assert cube.refresh_delta(table) == len(winner_by_cell)
            # the append dropped this cube's cached tid lists
            assert len(service.pseudo_cache) == 0
            assert service.pseudo_cache.stats.invalidations > 0
            after = service.run_batch([query] * 2)[-1]
        new_tids = {r.tid for r in after.rows} - {r.tid for r in before.rows}
        assert any(tid >= first_new_tid for tid in new_tids)
        assert after.rows[0].score == pytest.approx(0.0)

    def test_close_unhooks_listener(self):
        db, table, cube = make_env()
        service = QueryService(cube, table, workers=1)
        cache = service.pseudo_cache
        service.run_batch(make_queries(23, count=2))
        service.close()
        invalidations_at_close = cache.stats.invalidations
        table.insert_rows([(0, 0, 0.5, 0.5)])
        cube.refresh_delta(table)
        assert cache.stats.invalidations == invalidations_at_close

    def test_invalidate_caches_drops_both_layers(self):
        db, table, cube = make_env()
        with QueryService(cube, table, workers=1) as service:
            service.run_batch(make_queries(29, count=3))
            assert len(service.pseudo_cache) > 0
            assert len(service.block_cache) > 0
            service.invalidate_caches()
            assert len(service.pseudo_cache) == 0
            assert service.bound_memo.resident_groups == 0
            assert len(service.block_cache) == 0


class TestFaultSemantics:
    def make_faulty_env(self, seed=31):
        """Every page read fails twice before succeeding; with a retry
        budget of 1 the first query aborts, yet reads eventually heal."""
        injector = FaultInjector(
            seed, [FaultRule(READ_ERROR, probability=1.0, max_triggers=2)]
        )
        device = FaultyBlockDevice(BlockDevice(), injector)
        db = Database(device=device, retry_policy=RetryPolicy(max_attempts=1))
        table = db.load_table("R", SCHEMA, make_rows(seed))
        injector.enabled = False  # loading/building must not trip the rules
        cube = RankingCube.build(table, block_size=16)
        db.cold_cache()
        injector.enabled = True
        return db, table, cube

    def test_aborted_query_does_not_poison_shared_caches(self):
        db, table, cube = self.make_faulty_env()
        query = make_queries(37, count=1)[0]
        with QueryService(cube, table, workers=1) as service:
            aborts = 0
            result = None
            for _ in range(8):
                try:
                    result = service.run_batch([query])[0]
                    break
                except QueryAbortedError:
                    aborts += 1
            assert aborts > 0, "fault plan never fired"
            assert result is not None, "reads never healed"
            assert service.stats.aborted == aborts
            # the healed answer equals a pristine serial run
            pristine_db, pristine_table, pristine_cube = make_env(31)
            pristine = RankingCubeExecutor(pristine_cube, pristine_table)
            assert signature(result) == signature(pristine.execute(query))
            # and the cache the aborted attempts warmed serves the same rows
            again = service.run_batch([query])[0]
            assert signature(again) == signature(result)

    def test_abort_surfaces_through_future(self):
        db, table, cube = self.make_faulty_env(seed=41)
        query = make_queries(43, count=1)[0]
        with QueryService(cube, table, workers=1) as service:
            future = service.submit(query)
            with pytest.raises(QueryAbortedError):
                future.result()
            record = service.stats.records[-1]
            assert record.aborted


class TestLifecycleAndAccounting:
    def test_closed_service_rejects_submissions(self):
        db, table, cube = make_env()
        service = QueryService(cube, table, workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(make_queries(47, count=1)[0])
        service.close()  # idempotent

    def test_rejects_zero_workers(self):
        db, table, cube = make_env()
        with pytest.raises(ValueError):
            QueryService(cube, table, workers=0)

    def test_per_query_records_account_io(self):
        db, table, cube = make_env()
        queries = make_queries(53, count=5)
        with QueryService(cube, table, workers=2) as service:
            results = service.run_batch(queries)
            stats = service.stats
        assert stats.queries == len(queries)
        assert stats.aborted == 0
        for record, result in zip(stats.records, results):
            assert record.latency_s >= 0.0
            assert record.blocks_accessed == (
                record.cold_fetches + record.base_block_reads
            )
        assert stats.total("blocks_accessed") == sum(
            r.blocks_accessed for r in results
        )
        assert stats.latency_percentile(0.5) <= stats.latency_percentile(0.95)

    def test_service_publishes_to_storage_registry(self):
        db, table, cube = make_env()
        queries = make_queries(61, count=6)
        with QueryService(cube, table, workers=2) as service:
            # the service joined the storage tree's registry: one spine
            assert service.registry is db.pool.registry
            results = service.run_batch(queries)
            registry = service.registry
        assert registry.value("serve.service.queries") == len(queries)
        assert registry.value("serve.service.aborted") == 0
        assert registry.value("serve.service.blocks_accessed") == sum(
            r.blocks_accessed for r in results
        )
        assert registry.histogram("serve.service.latency_s").count == len(queries)
        # the default caches joined the same spine
        assert registry.value(
            "serve.cache.hits", cache="pseudo_block"
        ) == service.pseudo_cache.stats.hits

    def test_trace_spans_retained_as_bounded_ring(self):
        db, table, cube = make_env()
        queries = make_queries(67, count=6)
        with QueryService(
            cube, table, workers=2, trace_spans=True, span_capacity=4
        ) as service:
            service.run_batch(queries)
            spans = list(service.spans)
        assert len(spans) == 4  # capacity trims the oldest trees
        for span in spans:
            assert span.name == "query"
            assert span.find("block_frontier") is not None
            assert span.find("delta_merge") is not None

    def test_tracing_off_by_default(self):
        db, table, cube = make_env()
        with QueryService(cube, table, workers=1) as service:
            service.run_batch(make_queries(71, count=2))
            assert service.spans == []

    def test_explain_reports_cache_layers(self):
        db, table, cube = make_env()
        query = make_queries(59, count=1)[0]
        with QueryService(cube, table, workers=1) as service:
            plan = service.executor.explain(query)
        assert "shared pseudo-block cache" in plan.cache_layers
        assert "shared bound memo" in plan.cache_layers
        assert "per-query pseudo-block buffer" in plan.cache_layers
        assert "shared block cache" in plan.cache_layers
        assert "cache layers" in plan.describe()
        bare = RankingCubeExecutor(cube, table).explain(query)
        assert "shared pseudo-block cache" not in bare.cache_layers


@pytest.mark.anyk
@pytest.mark.reverse
class TestAnyKAndReverseFrontEnds:
    """open_search / submit_reverse on the unsharded service."""

    def test_open_search_streams_oracle_order(self):
        from repro.workloads.oracle import brute_force_ranked

        rows = make_rows(83, count=200)
        db, table, cube = make_env(rows=rows)
        query = make_queries(83, count=1)[0]
        with QueryService(cube, table, workers=1, trace_spans=True) as service:
            with service.open_search(query) as cursor:
                got = []
                while not cursor.exhausted:
                    got.extend(cursor.next_batch(9))
            expected = brute_force_ranked(SCHEMA, rows, query)
            assert [(r.score, r.tid) for r in got] == [
                (r.score, r.tid) for r in expected
            ]
            assert (
                service.registry.value("serve.service.searches_opened") == 1
            )
            root = service.spans[-1]
            assert root.name == "anyk_query"
            assert root.counters["rows"] == len(expected)
            assert root.find("anyk_open") is not None
            assert root.find("anyk_batch") is not None

    def test_submit_reverse_matches_oracle_and_records(self):
        from repro.core import ReverseTopKQuery, simplex_grid_family
        from repro.workloads.oracle import brute_force_reverse_topk

        rows = make_rows(89, count=200)
        db, table, cube = make_env(rows=rows)
        target = next(tid for tid, row in enumerate(rows) if row[0] == 1)
        rq = ReverseTopKQuery(
            target, 4, {"a1": 1}, simplex_grid_family(["n1", "n2"], 4)
        )
        with QueryService(cube, table, workers=1, trace_spans=True) as service:
            result = service.submit_reverse(rq).result()
            assert result.qualifying == brute_force_reverse_topk(
                SCHEMA, rows, rq
            )
            assert service.registry.value("serve.service.reverse_queries") == 1
            assert service.stats.queries == 1
            root = service.spans[-1]
            assert root.name == "reverse_query"
            assert root.find("reverse_function") is not None

    def test_open_search_after_close_raises(self):
        db, table, cube = make_env()
        service = QueryService(cube, table, workers=1)
        service.close()
        query = make_queries(97, count=1)[0]
        with pytest.raises(ServiceClosedError):
            service.open_search(query)


@pytest.mark.parametrize(
    "fraction, expected", [(0.0, 1), (0.5, 10), (0.95, 19), (1.0, 20)]
)
def test_latency_percentile_is_nearest_rank(fraction, expected):
    """The smallest latency with at least ``fraction`` of the sample at
    or below it: rank ``ceil(fraction * n)``, clamped to the sample."""
    stats = ServiceStats(
        [
            QueryRecord(latency_s, 0, 0, 0, 0, 0, 0, 0, 0)
            for latency_s in random.Random(3).sample(range(1, 21), 20)
        ]
    )
    assert stats.latency_percentile(fraction) == expected
