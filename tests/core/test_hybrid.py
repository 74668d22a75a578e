"""Tests for cost estimation and the cube-or-index routing decision."""

import random

import pytest

from repro.core import RankingCube
from repro.core.estimate import (
    estimate_baseline_cost,
    estimate_cube_cost,
    estimate_qualifying,
    expected_heap_pages,
)
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import AdaptiveRouter


def make_env(num_rows=8000, cards=(10, 10, 500), seed=113):
    schema = Schema.of(
        [selection_attr(f"a{i + 1}", c) for i, c in enumerate(cards)]
        + [ranking_attr("n1"), ranking_attr("n2")]
    )
    rng = random.Random(seed)
    rows = [
        tuple(rng.randrange(c) for c in cards) + (rng.random(), rng.random())
        for _ in range(num_rows)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    for name in schema.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(table, block_size=25)
    return db, table, rows, schema, cube


def fn():
    return LinearFunction(["n1", "n2"], [1.0, 1.0])


class TestEstimates:
    def test_qualifying_independence(self):
        _db, table, rows, _schema, _cube = make_env()
        query = TopKQuery(5, {"a1": 3, "a2": 7}, fn())
        estimate = estimate_qualifying(table, query)
        actual = sum(1 for row in rows if row[0] == 3 and row[1] == 7)
        # independent uniform dims: estimate within a loose band of truth
        assert estimate == pytest.approx(actual, rel=0.6, abs=30)

    def test_qualifying_no_selections(self):
        _db, table, rows, _schema, _cube = make_env()
        assert estimate_qualifying(table, TopKQuery(5, {}, fn())) == len(rows)

    def test_cube_cost_grows_with_k(self):
        _db, table, _rows, _schema, cube = make_env()
        small = estimate_cube_cost(cube, table, TopKQuery(5, {"a1": 3}, fn()))
        large = estimate_cube_cost(cube, table, TopKQuery(100, {"a1": 3}, fn()))
        assert large.pages > small.pages

    def test_cube_cost_grows_with_moderate_selectivity(self):
        # with enough qualifying tuples (>= k) more conditions spread the
        # top-k over more blocks
        _db, table, _rows, _schema, cube = make_env()
        loose = estimate_cube_cost(cube, table, TopKQuery(10, {"a1": 3}, fn()))
        tight = estimate_cube_cost(
            cube, table, TopKQuery(10, {"a1": 3, "a2": 7}, fn())
        )
        assert tight.pages > loose.pages

    def test_cube_cost_stays_small_when_nothing_qualifies(self):
        # almost-empty qualifying sets skip base blocks (Section 3.2.1):
        # the sweep is directory probes, not data reads
        _db, table, _rows, _schema, cube = make_env()
        estimate = estimate_cube_cost(
            cube, table, TopKQuery(10, {"a1": 3, "a2": 7, "a3": 5}, fn())
        )
        assert estimate.pages < 20

    def test_baseline_prefers_selective_index(self):
        # cardinality 5000 over 8000 rows: ~1-2 matches, so even 10x-priced
        # random fetches undercut the sequential scan
        _db, table, _rows, _schema, _cube = make_env(cards=(10, 10, 5000))
        estimate = estimate_baseline_cost(
            table, TopKQuery(5, {"a1": 3, "a3": 5}, fn())
        )
        assert estimate.pages < 10
        assert estimate.io_cost < table.heap.num_pages

    def test_baseline_falls_back_to_scan(self):
        _db, table, _rows, _schema, _cube = make_env()
        estimate = estimate_baseline_cost(table, TopKQuery(5, {"a1": 3}, fn()))
        # a1 matches ~800 rows: scanning is cheaper than 800 random reads
        assert estimate.pages == table.heap.num_pages

    def test_index_cost_amortizes_rows_into_heap_pages(self):
        """Regression (Figure 9, s=4 regime): ~100 qualifying rows on a
        heap with several rows per page must be priced as *distinct heap
        pages* (Cardenas), not one random read per row.  The pre-fix model
        charged ``RANDOM_READ_WEIGHT * rows``, overstating the index path
        and biasing the hybrid planner toward the cube exactly where the
        paper says ranking is unnecessary."""
        schema = Schema.of(
            [selection_attr(f"a{i + 1}", c) for i, c in enumerate((10, 10, 160))]
            + [ranking_attr("n1"), ranking_attr("n2")]
        )
        rng = random.Random(113)
        rows = [
            tuple(rng.randrange(c) for c in (10, 10, 160))
            + (rng.random(), rng.random())
            for _ in range(16000)
        ]
        db = Database(page_size=512)
        table = db.load_table("R", schema, rows)
        table.create_secondary_index("a3")
        matching = table.value_count("a3", 5)
        assert 50 < matching < 150  # the s=4 regime: ~100 qualifying
        estimate = estimate_baseline_cost(
            table, TopKQuery(10, {"a3": 5}, fn())
        )
        # index plan wins, and its page count is the Cardenas expectation —
        # strictly fewer pages than rows (rows share heap pages)
        assert estimate.pages < table.heap.num_pages
        assert estimate.pages < matching
        assert estimate.pages == pytest.approx(
            expected_heap_pages(matching, table.heap.num_pages)
        )

    def test_expected_heap_pages_saturates(self):
        # more random fetches than pages: every page gets touched, cost
        # caps at the page count instead of growing without bound
        assert expected_heap_pages(1_000_000, 50) == pytest.approx(50.0)
        assert expected_heap_pages(1, 50) == pytest.approx(1.0)
        assert expected_heap_pages(0, 50) == 0.0
        with pytest.raises(ValueError):
            expected_heap_pages(10, 0)

    def test_cube_cost_saturates_at_grid_size(self):
        """Past the qualifying tuples the search pops every block: the
        estimate stops growing with k, and never exceeds one fetch per
        pseudo block plus one read per base block."""
        _db, table, _rows, _schema, cube = make_env(num_rows=500)
        big, bigger = (
            estimate_cube_cost(cube, table, TopKQuery(k, {"a1": 3}, fn()))
            for k in (10_000, 10**9)
        )
        assert big.pages == bigger.pages
        (cuboid,) = cube.covering_cuboids(["a1"])
        assert big.pages <= cuboid.pseudo.num_pseudo_blocks + cube.grid.num_blocks


class TestHybridExecutor:
    """Figure 9's cube-or-index call, made per query by the router on
    the cheaper estimate."""

    def test_unselective_query_routes_to_cube(self):
        _db, table, _rows, _schema, cube = make_env()
        router = AdaptiveRouter.for_cube(cube, table)
        router.execute(TopKQuery(5, {"a1": 3}, fn()))
        assert router.last_decision.path == "cube"

    def test_ultra_selective_index_routes_to_baseline(self):
        # a3 has cardinality 5000 over 8000 rows: the secondary index
        # returns ~1-2 rids, cheaper than any progressive search
        _db, table, _rows, _schema, cube = make_env(cards=(10, 10, 5000))
        router = AdaptiveRouter.for_cube(cube, table)
        router.execute(TopKQuery(10, {"a3": 5}, fn()))
        assert router.last_decision.path == "baseline"

    def test_both_routes_return_identical_answers(self):
        _db, table, rows, schema, cube = make_env()
        router = AdaptiveRouter.for_cube(cube, table)
        rng = random.Random(3)
        for _ in range(8):
            selections = {"a1": rng.randrange(10)}
            if rng.random() < 0.5:
                selections["a3"] = rng.randrange(500)
            query = TopKQuery(5, selections, fn())
            result = router.execute(query)
            expected = sorted(
                (
                    (query.score_row(schema, row), tid)
                    for tid, row in enumerate(rows)
                    if query.matches(schema, row)
                )
            )[: query.k]
            assert [r.score for r in result.rows] == pytest.approx(
                [s for s, _t in expected]
            )

    def test_estimates_recorded(self):
        """The last decision holds both estimates, for the latest query
        and not a stale one."""
        _db, table, _rows, _schema, cube = make_env(cards=(10, 10, 5000))
        router = AdaptiveRouter.for_cube(cube, table)
        router.execute(TopKQuery(5, {"a1": 3}, fn()))
        assert router.last_decision.path == "cube"
        router.execute(TopKQuery(10, {"a3": 5}, fn()))
        decision = router.last_decision
        assert decision.path == "baseline"
        assert set(decision.analytic) == {"cube", "baseline"}
        assert decision.analytic["baseline"] < decision.analytic["cube"]

    def test_decision_counter_labels_path(self):
        from repro.obs import MetricsRegistry

        _db, table, _rows, _schema, cube = make_env(cards=(10, 10, 5000))
        registry = MetricsRegistry()
        router = AdaptiveRouter.for_cube(cube, table, registry=registry)
        router.execute(TopKQuery(5, {"a1": 3}, fn()))
        router.execute(TopKQuery(10, {"a3": 5}, fn()))
        router.execute(TopKQuery(10, {"a3": 5}, fn()))
        assert registry.value("route.decision", path="cube") == 1
        assert registry.value("route.decision", path="baseline") == 2
