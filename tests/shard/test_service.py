"""Unit tests for the sharded builder and scatter-gather service."""

import functools
import random
import threading

import pytest

from repro.core import (
    QueryAbortedError,
    RankingCube,
    RankingCubeExecutor,
    ReverseTopKQuery,
    simplex_grid_family,
)
from repro.obs.metrics import MetricsRegistry
from repro.ranking import LinearFunction
from repro.relational import (
    Database,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from repro.serve import ServiceClosedError, ShardedQueryService
from repro.shard import ShardError, build_sharded
from repro.storage import (
    READ_ERROR,
    BlockDevice,
    FaultInjector,
    FaultRule,
    FaultyBlockDevice,
    RetryPolicy,
    StorageError,
)
from repro.workloads.oracle import brute_force_topk

from ..serve.test_service import signature, zipf_dataset, zipf_stream

pytestmark = pytest.mark.serve

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)


def make_rows(count=120, seed=5):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


class TestShardedCube:
    def test_global_tids_cover_the_load(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 3, block_size=8)
        assert cube.num_rows == len(rows)
        seen = sorted(g for s in cube.shards for g in s.tid_map)
        assert seen == list(range(len(rows)))

    def test_fetch_by_tid_routes_to_the_owner(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 4, block_size=8)
        for gtid in (0, 41, len(rows) - 1):
            assert cube.fetch_by_tid(gtid) == rows[gtid]
        with pytest.raises(ShardError):
            cube.locate_tid(len(rows))

    def test_appends_get_fresh_sequential_tids(self):
        rows = make_rows(60)
        cube = build_sharded(SCHEMA, rows, 2, block_size=8)
        added = cube.append_rows([(0, 1, 0.2, 0.3), (2, 0, 0.9, 0.1)])
        assert added == 2
        assert cube.num_rows == 62
        assert cube.fetch_by_tid(60) == (0, 1, 0.2, 0.3)
        assert cube.fetch_by_tid(61) == (2, 0, 0.9, 0.1)

    def test_empty_shard_builds_its_cube_on_first_append(self):
        # card-3 key over 5 shards leaves shards 3 and 4 empty
        rows = [(v % 3, 0, 0.5, 0.5) for v in range(30)]
        cube = build_sharded(
            SCHEMA, rows, 5, mode="selection_key", key_dim="a1", block_size=8
        )
        assert cube.shards[3].cube is None
        # a1=0 rows with tid % ... route by key: value 0 -> shard 0; grow
        # shard 3 via a row whose key hashes there
        cube.append_rows([(0, 0, 0.1, 0.1)])  # key 0 -> shard 0, delta path
        assert cube.shards[0].cube is not None


#: the stream ``test_merge_counts_are_pinned`` replays
PINNED_STREAM = [
    query(k=25),
    query(k=15, a1=1),
    query(k=30, a2=2),
    TopKQuery(4, {"a1": 0, "a2": 3}, LinearFunction(["n2"], [1.0])),
]


@functools.lru_cache(maxsize=1)
def zipf_deployment_baseline():
    """A 40-query zipf stream over 2,000 rows, replayed on one unsharded
    cube from a cold buffer pool per query: ``(dataset, stream, answers,
    (blocks, candidates, device reads))``."""
    dataset = zipf_dataset(2_000, seed=23)
    stream = zipf_stream(dataset.schema, distinct=8, count=40, seed=23)
    db = Database(buffer_capacity=4096)
    table = dataset.load_into(db)
    executor = RankingCubeExecutor(RankingCube.build(table, block_size=30), table)
    db.device.reset_stats()
    answers, blocks, candidates = [], 0, 0
    for q in stream:
        db.cold_cache()
        result = executor.execute(q)
        answers.append(signature(result))
        blocks += result.blocks_accessed
        candidates += result.candidates_examined
    return dataset, stream, answers, (blocks, candidates, db.device.stats.reads)


class ShardedServiceSuite:
    """What every serving mode must do; a subclass names the ``mode``,
    the merge counts its transport's trips produce (``pinned``) and the
    zipf-stream deployment counters (``deployment_pinned``).

    One loop serves both modes, so one suite checks both: the thread
    subclass is below, the process subclass lives with the process-only
    tests in ``test_process_service.py``.
    """

    mode: str
    pinned: dict
    deployment_pinned: dict

    def service(self, cube, **kwargs):
        return ShardedQueryService(cube, mode=self.mode, **kwargs)

    def test_answers_and_shard_attribution(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 3, block_size=8)
        with self.service(cube, workers=2) as service:
            result = service.submit(query(k=4, a1=1)).result()
        assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
            SCHEMA, rows, query(k=4, a1=1)
        )
        assert result.shard_io is not None
        assert sorted(result.shard_io) == [0, 1, 2]
        assert result.blocks_accessed == sum(
            io.blocks_accessed for io in result.shard_io.values()
        )
        assert result.tuples_examined == sum(
            io.tuples_examined for io in result.shard_io.values()
        )

    def test_selection_key_pruning_consults_one_shard(self):
        rows = make_rows()
        cube = build_sharded(
            SCHEMA, rows, 3, mode="selection_key", key_dim="a1", block_size=8
        )
        with self.service(cube, workers=2) as service:
            pruned = service.submit(query(k=3, a1=2)).result()
            fanned = service.submit(query(k=3, a2=1)).result()
        assert sorted(pruned.shard_io) == [2]
        assert sorted(fanned.shard_io) == [0, 1, 2]

    def test_projection_fetches_from_owning_shards(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 2, block_size=8)
        q = TopKQuery(
            3, {"a1": 0}, LinearFunction(["n1", "n2"], [1.0, 1.0]),
            projection=("a2",),
        )
        with self.service(cube, workers=2) as service:
            result = service.submit(q).result()
        for row in result.rows:
            assert row.values == (rows[row.tid][1],)

    def test_per_shard_metrics_series(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 2, block_size=8)
        registry = MetricsRegistry()
        with self.service(cube, workers=2, registry=registry) as service:
            service.run_batch([query(k=3), query(k=5, a1=1)])
            snap = registry.snapshot()
            assert snap["shard.service.queries"] == 2
            per_shard = [
                name for name in snap if name.startswith("shard.service.steps{")
            ]
            assert len(per_shard) == 2  # one labeled series per shard
            # a reverse query moves the same per-shard series
            service.cold_cache()
            reverse = ReverseTopKQuery(
                7, 4, {}, simplex_grid_family(["n1", "n2"], 3)
            )
            before = {
                name: registry.total(f"shard.service.{name}")
                for name in ("blocks_accessed", "device_reads")
            }
            service.submit_reverse(reverse).result()
            for name, value in before.items():
                assert registry.total(f"shard.service.{name}") > value, name

    def test_shard_merge_span_under_query_span(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 2, block_size=8)
        with self.service(cube, workers=1, trace_spans=True) as service:
            service.submit(query(k=3, a1=0)).result()
        assert service.spans
        root = service.spans[-1]
        assert root.name == "query"
        merge = [c for c in root.children if c.name == "shard_merge"]
        assert len(merge) == 1
        assert merge[0].counters["shard_steps"] >= 1
        # every shard's session spans are adopted under the merge span
        batches = [c for c in merge[0].children if c.name == "shard_batch"]
        assert {b.attributes["shard"] for b in batches} == {0, 1}
        assert sum(b.counters["steps"] for b in batches) == (
            merge[0].counters["shard_steps"]
        )

    def test_abort_on_dead_shard_carries_partials(self):
        rows = make_rows(200)

        def factory(shard_id):
            if shard_id == 1:
                injector = FaultInjector(
                    seed=0,
                    rules=[FaultRule(READ_ERROR, probability=1.0)],
                )
                return Database(
                    device=FaultyBlockDevice(BlockDevice(), injector),
                    retry_policy=RetryPolicy(max_attempts=2),
                )
            return Database()

        cube = build_sharded(SCHEMA, rows, 2, block_size=8, database_factory=factory)
        cube.cold_cache()  # force reads through the (faulty) device
        with self.service(cube, workers=1) as service:
            future = service.submit(query(k=5))
            with pytest.raises(QueryAbortedError) as excinfo:
                future.result()
            err = excinfo.value
            # partial rows come from the surviving shard's merged candidates
            assert isinstance(err.partial_rows, list)
            assert service.stats.aborted == 1
            # the abort closed every session the query had opened
            for shard_id in (0, 1):
                assert service._transport.handle(shard_id).open_sessions == 0
        # the healthy shard is still serviceable afterwards
        with self.service(cube, workers=1):
            pruned_map = cube.shard_map.shards_for_query({})
            assert pruned_map == (0, 1)

    @pytest.mark.parametrize("point", ["scatter", "enum_open"])
    def test_failed_open_closes_the_sessions_that_did_open(self, point):
        """One shard of three cannot open: the abort must close the two
        sessions that did (each pins a snapshot and a frontier) and
        report the blocks those shards read."""
        cube = build_sharded(SCHEMA, make_rows(), 3, block_size=8)
        survivors = (0, 1)

        def hook(fired, shard_id):
            if fired == point and shard_id == 2:
                raise StorageError("injected: shard 2 cannot open")

        registry = MetricsRegistry()
        with self.service(
            cube, workers=1, registry=registry, fault_hook=hook
        ) as service:
            with pytest.raises(QueryAbortedError) as excinfo:
                if point == "scatter":
                    service.submit(query(k=5)).result()
                else:
                    service.open_search(query(k=5))
            for shard_id in survivors:
                assert service._transport.handle(shard_id).open_sessions == 0
        read = sum(
            registry.value("shard.service.blocks_accessed", shard=str(shard_id))
            for shard_id in survivors
        )
        assert excinfo.value.blocks_accessed == read
        # an enumeration open fetches first rows; a top-k open takes no
        # step in either mode, so its survivors read nothing
        assert read == {"scatter": 0, "enum_open": 10}[point]

    @pytest.mark.parametrize("victim", [0, 1, 2, 3])
    def test_failed_step_closes_every_session(self, victim):
        """The merge-round twin of the failed open: one shard of four
        faults on its first step.  The abort is typed, closes all four
        sessions (the victim's endpoint still answers) and reports the
        blocks the shards had read — whichever of them the merge stepped
        before the fault, on whatever thread."""
        cube = build_sharded(SCHEMA, make_rows(400), 4, block_size=8)

        def hook(fired, shard_id):
            if fired == "merge_round" and shard_id == victim:
                raise StorageError(f"injected: shard {victim} cannot step")

        registry = MetricsRegistry()
        # one step a trip, so a worker's open does not finish the query
        with self.service(
            cube, workers=1, registry=registry, fault_hook=hook, step_batch=1
        ) as service:
            with pytest.raises(QueryAbortedError) as excinfo:
                service.submit(query(k=20)).result()
            assert excinfo.value.cause.shard_id == victim
            assert service.stats.records[-1].aborted
            for shard_id in range(4):
                assert service._transport.handle(shard_id).open_sessions == 0
        per_shard = [
            registry.value("shard.service.blocks_accessed", shard=str(shard_id))
            for shard_id in range(4)
        ]
        read = sum(per_shard)
        assert excinfo.value.blocks_accessed == read
        # opens take no step, and the merge steps the lowest-bound shard:
        # the shards whose first entry bounds below the victim's opened
        # it (one pseudo-block fetch each) before the victim faulted
        assert per_shard == {0: [0, 1, 1, 1], 1: [0, 0, 1, 0],
                             2: [0, 0, 0, 0], 3: [0, 1, 1, 0]}[victim]

    def test_aborted_query_counts_the_shards_it_opened(self):
        """``shards_consulted`` is the sessions a query opens — an empty
        shard serves nothing — whether the query finishes or aborts."""
        # card-3 key over 5 shards leaves shards 3 and 4 empty
        cube = build_sharded(
            SCHEMA, make_rows(400), 5, mode="selection_key", key_dim="a1",
            block_size=8,
        )
        assert cube.shards[3].cube is None and cube.shards[4].cube is None
        armed = []

        def hook(fired, shard_id):
            if armed and fired in ("merge_round", "reverse_count") and shard_id == 0:
                raise StorageError("injected: shard 0 is gone")

        reverse = ReverseTopKQuery(7, 4, {}, simplex_grid_family(["n1", "n2"], 3))
        with self.service(
            cube, workers=1, fault_hook=hook, step_batch=1
        ) as service:
            service.submit(query(k=20)).result()
            service.submit_reverse(reverse).result()
            armed.append(True)
            for submit, request in (
                (service.submit, query(k=20)),
                (service.submit_reverse, reverse),
            ):
                with pytest.raises(QueryAbortedError):
                    submit(request).result()
        records = service.stats.records
        assert [r.aborted for r in records] == [False, False, True, True]
        assert [r.shards_consulted for r in records] == [3, 3, 3, 3]

    def test_shard_calls_run_where_the_transport_says(self):
        """In-process calls run on the query's own thread and start no
        step pool; calls that block on a pipe fan the opens out on it."""
        cube = build_sharded(SCHEMA, make_rows(400), 3, block_size=8)
        fired: list[tuple[str, str]] = []

        def hook(point, shard_id):
            fired.append((point, threading.current_thread().name))

        def one_query(run) -> dict[str, set[str]]:
            """The threads each serving point of one query fired on."""
            del fired[:]
            run()
            threads: dict[str, set[str]] = {}
            for point, name in fired:
                threads.setdefault(point, set()).add(name)
            return threads

        def enumerate_some():
            with service.open_search(query(k=3)) as cursor:
                cursor.next_batch(40)

        reverse = ReverseTopKQuery(7, 4, {}, simplex_grid_family(["n1", "n2"], 3))
        before = set(threading.enumerate())
        with self.service(
            cube, workers=2, fault_hook=hook, step_batch=1
        ) as service:
            queries = {
                "topk": one_query(lambda: service.submit(query(k=20)).result()),
                "anyk": one_query(enumerate_some),
                "reverse": one_query(
                    lambda: service.submit_reverse(reverse).result()
                ),
            }
            step_threads = [
                t for t in set(threading.enumerate()) - before
                if t.name.startswith("repro-shard-step")
            ]
            calls_block = service._transport.calls_block
        assert set(queries["topk"]) == {"scatter", "merge_round", "finish"}
        assert set(queries["anyk"]) == {"enum_open", "enum_next"}
        assert set(queries["reverse"]) == {"reverse_count"}
        assert calls_block == (self.mode == "process")
        if not calls_block:
            for name, threads in queries.items():
                assert len(set().union(*threads.values())) == 1, (name, threads)
            assert not step_threads
        else:
            # every open ran on the step pool, none on the query's thread
            assert all(
                name.startswith("repro-shard-step")
                for name in queries["topk"]["scatter"]
            ), queries["topk"]["scatter"]
            assert step_threads

    def test_merge_counts_are_pinned(self):
        """Rounds, steps and per-shard I/O of a fixed stream under the
        lowest-bound-first merge.  Where a call runs and how many steps a
        trip carries must not change what the shards read: both modes pin
        the same steps and I/O, and differ only in rounds."""
        cube = build_sharded(SCHEMA, make_rows(800), 4, block_size=8)
        registry = MetricsRegistry()
        # two steps a trip, so the pipe transport takes merge rounds too
        with self.service(
            cube, workers=1, registry=registry, step_batch=2
        ) as service:
            service.cold_cache()
            results = [service.submit(q).result() for q in PINNED_STREAM]
        records = service.stats.records
        observed = {
            "rounds": [r.merge_rounds for r in records],
            "steps": [r.shard_steps for r in records],
            "shard_io": [
                {
                    sid: (io.blocks_accessed, io.candidates_examined,
                          io.tuples_examined, io.device_reads)
                    for sid, io in sorted(result.shard_io.items())
                }
                for result in results
            ],
            "steps_series": [
                registry.value("shard.service.steps", shard=str(sid))
                for sid in range(4)
            ],
        }
        assert observed == self.pinned

    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_hot_shard_and_early_stop_gates(self, num_shards):
        """Sharding pays on the zipf stream: answers equal the unsharded
        cube's, the hottest shard reads fewer pages per query than the
        unsharded cube, and the early-stop merge examines fewer candidates
        than a naive gather in which every consulted shard computes its
        full local top-k."""
        dataset, stream, expected, unsharded = zipf_deployment_baseline()
        assert unsharded == (455, 455, 397)
        cube = build_sharded(
            dataset.schema, dataset.rows, num_shards,
            block_size=30, buffer_capacity=4096,
        )
        answers, hot_reads, reads = [], 0, 0
        with self.service(cube, workers=2, share_caches=False) as service:
            for q in stream:
                service.cold_cache()
                result = service.submit(q).result()
                answers.append(signature(result))
                shard_reads = [io.device_reads for io in result.shard_io.values()]
                hot_reads += max(shard_reads)
                reads += sum(shard_reads)
            stats = service.stats
        naive = 0
        for q in stream:
            for shard_id in cube.shard_map.shards_for_query(q.selections):
                shard = cube.shards[shard_id]
                if shard.cube is not None:
                    local = RankingCubeExecutor(shard.cube, shard.table)
                    naive += local.execute(q).candidates_examined
        candidates = stats.total("candidates_examined")
        assert answers == expected
        assert hot_reads < unsharded[2]
        assert candidates < naive
        observed = {
            "blocks": stats.total("blocks_accessed"),
            "candidates": candidates,
            "naive_candidates": naive,
            "tuples": stats.total("tuples_examined"),
            "device_reads": reads,
            "hot_shard_reads": hot_reads,
            "merge_rounds": stats.total("merge_rounds"),
            "shard_steps": stats.total("shard_steps"),
        }
        assert observed == self.deployment_pinned[num_shards]

    def test_closed_service_rejects_queries(self):
        cube = build_sharded(SCHEMA, make_rows(40), 2, block_size=8)
        service = self.service(cube, workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(query(k=1))


class TestShardedQueryService(ShardedServiceSuite):
    mode = "thread"
    #: one step a round, so rounds equal steps
    pinned = {
        "rounds": [9, 13, 35, 19],
        "steps": [9, 13, 35, 19],
        "shard_io": [
            {0: (3, 3, 27, 2), 1: (2, 2, 13, 2), 2: (2, 2, 14, 2), 3: (2, 2, 17, 2)},
            {0: (4, 4, 13, 2), 1: (3, 3, 4, 2), 2: (3, 3, 7, 2), 3: (3, 3, 8, 2)},
            {0: (10, 10, 13, 2), 1: (6, 6, 10, 2), 2: (9, 9, 15, 2), 3: (10, 10, 16, 2)},
            {0: (4, 4, 2, 2), 1: (4, 4, 3, 2), 2: (7, 7, 6, 2), 3: (4, 4, 2, 2)},
        ],
        "steps_series": [21, 15, 21, 19],
    }
    deployment_pinned = {
        2: {"blocks": 460, "candidates": 460, "naive_candidates": 654,
            "tuples": 548, "device_reads": 481, "hot_shard_reads": 259,
            "merge_rounds": 460, "shard_steps": 460},
        4: {"blocks": 587, "candidates": 587, "naive_candidates": 1084,
            "tuples": 528, "device_reads": 678, "hot_shard_reads": 199,
            "merge_rounds": 587, "shard_steps": 587},
    }

    def test_caches_are_per_shard_and_invalidation_wired(self):
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 2, block_size=8)
        with ShardedQueryService(cube, workers=1) as service:
            service.run_batch([query(k=3, a1=0)] * 3)
            stats = service.shard_cache_stats()
            assert sorted(stats) == [0, 1]
            assert any(s["hits"] > 0 for s in stats.values())
            # delta append must invalidate the touched shards' caches
            cube.append_rows([(0, 0, 0.01, 0.01)])
            result = service.submit(query(k=1, a1=0)).result()
            assert result.rows[0].tid == len(rows)  # the new best tuple
