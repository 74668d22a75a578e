"""Tests for query plan introspection (executor.explain)."""

import random

import pytest

from repro.core import (
    CubeError,
    ExecutorTrace,
    FragmentedRankingCube,
    RankingCube,
    RankingCubeExecutor,
)
from repro.obs import MetricsRegistry, Tracer
from repro.ranking import LinearFunction, LpDistance
from repro.relational import (
    Database,
    QueryError,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from repro.serve.cache import BoundMemo, PseudoBlockCache


def make_env(num_dims=4, fragment_size=None, num_rows=600, seed=107):
    schema = Schema.of(
        [selection_attr(f"a{i}", 3) for i in range(1, num_dims + 1)]
        + [ranking_attr("n1"), ranking_attr("n2")]
    )
    rng = random.Random(seed)
    rows = [
        tuple(rng.randrange(3) for _ in range(num_dims))
        + (rng.random(), rng.random())
        for _ in range(num_rows)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    if fragment_size is None:
        cube = RankingCube.build(table, block_size=20)
    else:
        cube = FragmentedRankingCube.build_fragments(
            table, fragment_size=fragment_size, block_size=20
        )
    return db, table, cube, RankingCubeExecutor(cube, table)


class TestExplain:
    def test_single_cuboid_plan(self):
        _db, _t, _cube, executor = make_env()
        query = TopKQuery(5, {"a1": 1, "a2": 2}, LinearFunction(["n1", "n2"], [1, 1]))
        plan = executor.explain(query)
        assert plan.covering_cuboids == ("a1a2|n1n2",)
        assert not plan.intersection_required
        assert 0 <= plan.start_bid < plan.grid_blocks
        assert plan.delta_tuples == 0

    def test_intersection_plan_for_fragments(self):
        _db, _t, _cube, executor = make_env(fragment_size=2)
        query = TopKQuery(5, {"a1": 1, "a3": 2}, LinearFunction(["n1", "n2"], [1, 1]))
        plan = executor.explain(query)
        assert plan.intersection_required
        assert len(plan.covering_cuboids) == 2

    def test_no_selection_plan(self):
        _db, _t, _cube, executor = make_env()
        query = TopKQuery(5, {}, LinearFunction(["n1", "n2"], [1, 1]))
        plan = executor.explain(query)
        assert plan.covering_cuboids == ()
        assert "base blocks only" in plan.describe()

    def test_start_block_holds_the_minimizer(self):
        _db, _t, cube, executor = make_env()
        fn = LpDistance(["n1", "n2"], [0.5, 0.5])
        plan = executor.explain(TopKQuery(3, {"a1": 0}, fn))
        assert plan.start_bid == cube.grid.locate((0.5, 0.5))
        assert plan.start_bound == pytest.approx(0.0)

    def test_plan_matches_execution_start(self):
        _db, _t, _cube, executor = make_env()
        query = TopKQuery(3, {"a2": 1}, LinearFunction(["n1", "n2"], [1, 2]))
        plan = executor.explain(query)
        trace = ExecutorTrace()
        executor.execute(query, trace=trace)
        assert trace.candidate_bids[0] == plan.start_bid

    def test_delta_tuples_surfaced(self):
        _db, table, cube, executor = make_env()
        table.insert_rows([(0, 0, 0, 0, 0.5, 0.5)])
        cube.refresh_delta(table)
        plan = executor.explain(TopKQuery(3, {}, LinearFunction(["n1", "n2"], [1, 1])))
        assert plan.delta_tuples == 1
        assert "delta" in plan.describe()

    def test_unknown_ranking_dim_rejected(self):
        _db, _t, _cube, executor = make_env()
        query = TopKQuery(3, {}, LinearFunction(["zz"], [1.0]))
        with pytest.raises(CubeError):
            executor.explain(query)

    def test_explain_rejects_what_execute_rejects(self):
        """One plan: a query execute() refuses gets no plan either."""
        _db, _t, _cube, executor = make_env()
        query = TopKQuery(5, {"a1": 7}, LinearFunction(["n1", "n2"], [1, 1]))
        with pytest.raises(QueryError, match="out of domain") as executed:
            executor.execute(query)
        with pytest.raises(QueryError, match="out of domain") as explained:
            executor.explain(query)
        assert str(explained.value) == str(executed.value)

    def test_explain_does_no_io(self):
        """No page read, and no footprint in the shared caches either:
        their statistics and every registry counter stay where they were."""
        db, table, cube, _bare = make_env()
        registry = MetricsRegistry()
        pseudo_cache = PseudoBlockCache(registry=registry)
        bound_memo = BoundMemo(registry=registry)
        executor = RankingCubeExecutor(
            cube, table, pseudo_cache=pseudo_cache, bound_memo=bound_memo
        )
        query = TopKQuery(5, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        db.cold_cache()
        db.device.reset_stats()
        counters = registry.counter_items()
        stats = (pseudo_cache.stats.snapshot(), bound_memo.stats.snapshot())
        plan = executor.explain(query)
        assert db.device.stats.reads == 0
        assert registry.counter_items() == counters
        assert (pseudo_cache.stats.snapshot(), bound_memo.stats.snapshot()) == stats
        assert bound_memo.resident_groups == 0 and len(pseudo_cache) == 0
        assert "shared bound memo" in plan.cache_layers


class TestReusedTrace:
    def test_frontier_peak_is_per_search(self):
        """A reused ExecutorTrace accumulates; each query's span must
        still report its own frontier peak, not the earlier query's."""
        _db, _t, _cube, executor = make_env()
        fn = LinearFunction(["n1", "n2"], [1, 1])
        big, small = TopKQuery(200, {"a1": 1}, fn), TopKQuery(1, {"a1": 1}, fn)

        def peak(span):
            return span.find("block_frontier").counters["frontier_peak"]

        fresh = Tracer()
        executor.execute(small, trace=ExecutorTrace(), tracer=fresh)
        executor.execute(big, trace=ExecutorTrace(), tracer=fresh)
        small_peak, big_peak = (peak(root) for root in fresh.roots)
        assert small_peak < big_peak

        reused, tracer = ExecutorTrace(), Tracer()
        executor.execute(big, trace=reused, tracer=tracer)
        executor.execute(small, trace=reused, tracer=tracer)
        assert [peak(root) for root in tracer.roots] == [big_peak, small_peak]
        # the trace itself accumulates, like its other counters
        assert reused.frontier_peak == big_peak
