"""Tests for the adaptively-routed serving tier (repro.serve.routed)."""

import random
import time

import pytest

from repro.core import RankingCube
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import RoutedQueryService
from repro.workloads.oracle import brute_force_topk

pytestmark = pytest.mark.serve

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_env(seed=43, count=400, cuboid_sets=None):
    rng = random.Random(seed)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]
    db = Database(buffer_capacity=128)
    table = db.load_table("R", SCHEMA, rows)
    for name in SCHEMA.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(table, block_size=12, cuboid_sets=cuboid_sets)
    return db, table, cube, rows


def make_queries(seed, count=20):
    rng = random.Random(seed)
    queries = []
    for _ in range(count):
        selections = {"a1": rng.randrange(CARDS[0])}
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(CARDS[1])
        queries.append(
            TopKQuery(
                rng.randint(1, 8),
                selections,
                LinearFunction(["n1", "n2"], [1.0, 0.5]),
            )
        )
    return queries


class TestRoutedService:
    def test_routed_answers_equal_the_oracle(self):
        db, table, cube, rows = make_env()
        queries = make_queries(7)
        with RoutedQueryService(cube, table, workers=4) as service:
            results = service.run_batch(queries)
        for query, result in zip(queries, results):
            got = [(r.score, r.tid) for r in result.rows]
            assert got == brute_force_topk(SCHEMA, rows, query)
        # the router actually served the batch and bumped route.* series
        assert service.registry.counter("route.queries").value == len(queries)
        assert service.router.last_decision is not None

    def test_requires_the_base_relation(self):
        db, table, cube, _ = make_env()
        with pytest.raises(ValueError):
            RoutedQueryService(cube, None)

    def test_owned_advisor_promotes_from_routed_stream(self):
        db, table, cube, rows = make_env(cuboid_sets=[("a1",), ("a2",)])
        hot = frozenset({"a1", "a2"})
        assert hot not in cube.cuboids
        service = RoutedQueryService(
            cube, table, workers=2, auto_advise_observations=8
        )
        try:
            fn = LinearFunction(["n1", "n2"], [1.0, 0.5])
            queries = [TopKQuery(5, {"a1": 1, "a2": 2}, fn) for _ in range(12)]
            results = service.run_batch(queries)
            for query, result in zip(queries, results):
                got = [(r.score, r.tid) for r in result.rows]
                assert got == brute_force_topk(SCHEMA, rows, query)
            service.advisor.wake()
            deadline = 200
            while hot not in cube.cuboids and deadline > 0:
                service.advisor.wake()
                time.sleep(0.02)
                deadline -= 1
            assert hot in cube.cuboids
            assert service.advisor.last_error is None
        finally:
            service.close()
        assert not service.advisor.running

    def test_drift_interval_triggers_online_repartition(self):
        db, table, cube, rows = make_env()
        rng = random.Random(3)
        appended = [
            (
                rng.randrange(CARDS[0]),
                rng.randrange(CARDS[1]),
                rng.uniform(0.9, 1.0),
                rng.uniform(0.9, 1.0),
            )
            for _ in range(300)
        ]
        with RoutedQueryService(
            cube, table, workers=1, drift_check_interval=4
        ) as service:
            # balanced grid: the periodic probes must not rebuild anything
            service.run_batch(make_queries(11, count=8))
            assert service.repartitions == []

            table.insert_rows(appended)
            # secondary indexes are build-once: rebuild over the grown heap
            # so the baseline path stays answer-identical
            for name in list(table.secondary_indexes):
                table.secondary_indexes.pop(name)
                table.create_secondary_index(name)
            cube.refresh_delta(table)
            service.invalidate_caches()
            live = rows + appended

            queries = make_queries(13, count=8)
            results = service.run_batch(queries)
            for query, result in zip(queries, results):
                got = [(r.score, r.tid) for r in result.rows]
                assert got == brute_force_topk(SCHEMA, live, query)

            swapped = [r for r in service.repartitions if r.swapped]
            assert swapped, "the drifted append must trigger a repartition"
            assert swapped[0].absorbed_delta == len(appended)
            assert len(cube._delta) == 0

            # post-repartition queries still return the oracle answer
            post = make_queries(17, count=6)
            for query, result in zip(post, service.run_batch(post)):
                got = [(r.score, r.tid) for r in result.rows]
                assert got == brute_force_topk(SCHEMA, live, query)

    def test_drift_interval_validation(self):
        db, table, cube, _ = make_env()
        with pytest.raises(ValueError):
            RoutedQueryService(cube, table, drift_check_interval=0)
