"""Unit and integration tests for the ranking-cube query executor."""

import random

import pytest

from repro.core import CubeError, ExecutorTrace, RankingCube, RankingCubeExecutor
from repro.ranking import ConvexFunction, LinearFunction, LpDistance, descending
from repro.relational import (
    Database,
    QueryError,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)


def make_env(num_rows=2000, cards=(4, 5), seed=23, block_size=25, ranking_dims=2):
    schema = Schema.of(
        [selection_attr(f"a{i + 1}", c) for i, c in enumerate(cards)]
        + [ranking_attr(f"n{j + 1}") for j in range(ranking_dims)]
    )
    rng = random.Random(seed)
    rows = [
        tuple(rng.randrange(c) for c in cards)
        + tuple(rng.random() for _ in range(ranking_dims))
        for _ in range(num_rows)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    cube = RankingCube.build(table, block_size=block_size)
    return db, table, rows, schema, RankingCubeExecutor(cube, table)


from repro.workloads.oracle import brute_force_topk as brute_force


def assert_matches_brute(executor, schema, rows, query):
    result = executor.execute(query)
    expected = brute_force(schema, rows, query)
    got = [(r.score, r.tid) for r in result.rows]
    assert len(got) == len(expected)
    for (g_score, _g_tid), (e_score, _e_tid) in zip(got, expected):
        assert g_score == pytest.approx(e_score, abs=1e-9)
    return result


class TestCorrectness:
    def test_basic_selection_query(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(10, {"a1": 1, "a2": 2}, LinearFunction(["n1", "n2"], [1, 1]))
        assert_matches_brute(executor, schema, rows, query)

    def test_single_selection(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(5, {"a2": 0}, LinearFunction(["n1", "n2"], [1, 3]))
        assert_matches_brute(executor, schema, rows, query)

    def test_no_selection_reads_base_blocks_directly(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(10, {}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        result = executor.execute(query, trace=trace)
        expected = brute_force(schema, rows, query)
        assert [r.tid for r in result.rows] == [t for _s, t in expected]
        assert trace.pseudo_block_fetches == 0
        assert trace.base_block_reads > 0

    def test_negative_weights(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(7, {"a1": 0}, LinearFunction(["n1", "n2"], [1.0, -1.0]))
        assert_matches_brute(executor, schema, rows, query)

    def test_descending_order(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(
            7, {"a1": 0}, descending(LinearFunction(["n1", "n2"], [1.0, 1.0]))
        )
        result = assert_matches_brute(executor, schema, rows, query)
        # descending on f means the largest f come back first
        raw = [-r.score for r in result.rows]
        assert raw == sorted(raw, reverse=True)

    def test_l2_distance(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(5, {"a1": 2}, LpDistance(["n1", "n2"], [0.6, 0.4]))
        assert_matches_brute(executor, schema, rows, query)

    def test_l1_distance(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(5, {"a1": 2}, LpDistance(["n1", "n2"], [0.3, 0.9], p=1))
        assert_matches_brute(executor, schema, rows, query)

    def test_generic_convex(self):
        db, table, rows, schema, executor = make_env(num_rows=800)
        fn = ConvexFunction(
            ["n1", "n2"],
            lambda x, y: (x - 0.5) ** 2 + 2 * (y - 0.2) ** 2 + x * y * 0,
            subgradient=lambda x, y: (2 * (x - 0.5), 4 * (y - 0.2)),
        )
        query = TopKQuery(5, {"a1": 1}, fn)
        assert_matches_brute(executor, schema, rows, query)

    def test_ranking_subset_of_grid_dims(self):
        db, table, rows, schema, executor = make_env(ranking_dims=3)
        query = TopKQuery(8, {"a1": 1}, LinearFunction(["n2"], [1.0]))
        assert_matches_brute(executor, schema, rows, query)

    def test_ranking_dims_out_of_order(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(5, {"a1": 1}, LinearFunction(["n2", "n1"], [5.0, 1.0]))
        assert_matches_brute(executor, schema, rows, query)

    def test_k_exceeds_qualifying_tuples(self):
        db, table, rows, schema, executor = make_env(num_rows=300, cards=(10, 10))
        query = TopKQuery(50, {"a1": 3, "a2": 7}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        expected = brute_force(schema, rows, query)
        assert len(result.rows) == len(expected)
        assert len(result.rows) < 50

    def test_k_equals_one(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(1, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        assert_matches_brute(executor, schema, rows, query)

    def test_selection_value_absent_from_data(self):
        db, table, rows, schema, executor = make_env(num_rows=100, cards=(50, 5))
        missing = next(
            v for v in range(50) if all(row[0] != v for row in rows)
        )
        query = TopKQuery(5, {"a1": missing}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        assert result.rows == []

    def test_many_random_queries(self):
        db, table, rows, schema, executor = make_env(num_rows=3000, cards=(4, 5, 3))
        rng = random.Random(99)
        for _ in range(20):
            dims = rng.sample(["a1", "a2", "a3"], rng.randrange(0, 4))
            selections = {
                d: rng.randrange(schema.attribute(d).cardinality) for d in dims
            }
            fn = LinearFunction(
                ["n1", "n2"], [rng.uniform(-1, 1), rng.uniform(0.05, 1)]
            )
            query = TopKQuery(rng.choice([1, 5, 15]), selections, fn)
            assert_matches_brute(executor, schema, rows, query)


class TestProjection:
    def test_projection_fetches_values(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(
            3,
            {"a1": 1},
            LinearFunction(["n1", "n2"], [1, 1]),
            projection=("a2", "n1"),
        )
        result = executor.execute(query)
        for row in result.rows:
            original = rows[row.tid]
            assert row.values == (original[1], original[2])

    def test_projection_without_relation_rejected(self):
        db, table, rows, schema, executor = make_env()
        bare = RankingCubeExecutor(executor.cube, relation=None)
        query = TopKQuery(
            3, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]), projection=("a2",)
        )
        with pytest.raises(CubeError):
            bare.execute(query)


class TestEfficiency:
    def test_small_k_reads_few_blocks(self):
        db, table, rows, schema, executor = make_env(num_rows=5000)
        query = TopKQuery(5, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        executor.execute(query, trace=trace)
        total_blocks = executor.cube.grid.num_blocks
        assert len(trace.candidate_bids) < total_blocks / 3

    def test_progressive_block_bounds_nondecreasing(self):
        db, table, rows, schema, executor = make_env()
        fn = LinearFunction(["n1", "n2"], [1, 1])
        query = TopKQuery(10, {"a1": 1}, fn)
        trace = ExecutorTrace()
        executor.execute(query, trace=trace)
        grid = executor.cube.grid
        positions = grid.project(fn.dims)
        bounds = [
            fn.min_over_box(*grid.sub_box(bid, positions))
            for bid in trace.candidate_bids
        ]
        assert bounds == sorted(bounds)

    def test_buffering_avoids_repeat_fetches(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(20, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        executor.execute(query, trace=trace)
        if trace.pseudo_block_buffer_hits:
            assert trace.pseudo_block_fetches < len(trace.candidate_bids)

    def test_empty_cells_skip_base_blocks(self):
        db, table, rows, schema, executor = make_env(num_rows=300, cards=(30, 3))
        query = TopKQuery(3, {"a1": 7}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        executor.execute(query, trace=trace)
        assert trace.base_block_reads <= len(trace.candidate_bids)
        if trace.empty_cells_skipped:
            assert trace.base_block_reads < len(trace.candidate_bids)


class TestAccounting:
    """``blocks_accessed`` counts actual fetches; popped candidates are
    metered separately (the counter inflation fixed in the serving PR)."""

    def test_blocks_accessed_counts_fetches_not_candidates(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(10, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        result = executor.execute(query, trace=trace)
        assert result.blocks_accessed == (
            trace.pseudo_block_fetches + trace.base_block_reads
        )
        # frontier pops of both kinds: bids and opened pseudo blocks
        assert result.candidates_examined == (
            len(trace.candidate_bids) + trace.pseudo_entries
        )

    def test_empty_cell_skips_cost_no_block_io(self):
        # high-cardinality selection: most of the cell's bids hold no
        # qualifying tuple.  An opened pseudo block pushes only the bids
        # it holds, so no empty bid reaches the frontier: every popped
        # bid reads its base block and nothing inflates blocks_accessed
        db, table, rows, schema, executor = make_env(num_rows=300, cards=(30, 3))
        query = TopKQuery(3, {"a1": 7}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        result = executor.execute(query, trace=trace)
        assert result.candidates_examined >= result.blocks_accessed
        assert trace.empty_cells_skipped == 0
        assert trace.base_block_reads == len(trace.candidate_bids)

    def test_buffered_candidates_do_not_recount(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(20, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        trace = ExecutorTrace()
        result = executor.execute(query, trace=trace)
        if trace.pseudo_block_buffer_hits:
            # buffer hits examined candidates without fetching blocks
            assert result.blocks_accessed < 2 * result.candidates_examined


class TestTieBreaking:
    """Regression lock for the QueryResult ordering contract: ascending
    ``(score, tid)``, both in presentation and in which tuples survive a
    tie on the k-th score."""

    def make_tied_env(self, arrival):
        """Rows whose scores all tie; ``arrival`` permutes insert order."""
        schema = Schema.of(
            [selection_attr("a1", 2), ranking_attr("n1"), ranking_attr("n2")]
        )
        # every row scores exactly 1.0 under f = n1 + n2
        rows = [(0, 0.5, 0.5) for _ in arrival]
        db = Database()
        table = db.load_table("R", schema, rows)
        cube = RankingCube.build(table, block_size=4)
        return RankingCubeExecutor(cube, table)

    @pytest.mark.parametrize("order", [range(8), reversed(range(8))])
    def test_ties_keep_smallest_tids(self, order):
        executor = self.make_tied_env(list(order))
        query = TopKQuery(3, {"a1": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        # of 8 tuples tied at score 1.0, the 3 smallest tids survive,
        # presented tid-ascending
        assert [r.tid for r in result.rows] == [0, 1, 2]
        assert all(r.score == pytest.approx(1.0) for r in result.rows)

    def test_partial_tie_orders_by_score_then_tid(self):
        schema = Schema.of(
            [selection_attr("a1", 2), ranking_attr("n1"), ranking_attr("n2")]
        )
        rows = [
            (0, 0.2, 0.2),  # tid 0: score 0.4
            (0, 0.3, 0.1),  # tid 1: score 0.4 (tie with 0)
            (0, 0.1, 0.1),  # tid 2: score 0.2 (best)
            (0, 0.4, 0.0),  # tid 3: score 0.4 (tie with 0, 1)
        ]
        db = Database()
        table = db.load_table("R", schema, rows)
        executor = RankingCubeExecutor(RankingCube.build(table, block_size=2), table)
        query = TopKQuery(3, {"a1": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        assert [r.tid for r in result.rows] == [2, 0, 1]

    @pytest.mark.parametrize("k", [1, 3, 10, 40])
    def test_tie_dense_cells_keep_smallest_tids(self, k):
        """Four distinct ranking values, so every block holds many ties."""
        schema = Schema.of(
            [selection_attr("a1", 3), ranking_attr("n1"), ranking_attr("n2")]
        )
        rng = random.Random(17)
        values = (0.1, 0.4, 0.4, 0.7)
        rows = [
            (rng.randrange(3), rng.choice(values), rng.choice(values))
            for _ in range(150)
        ]
        db = Database()
        table = db.load_table("R", schema, rows)
        executor = RankingCubeExecutor(RankingCube.build(table, block_size=6), table)
        query = TopKQuery(k, {"a1": 1}, LinearFunction(("n1", "n2"), (1.0, 1.0)))
        result = executor.execute(query)
        assert [(r.score, r.tid) for r in result.rows] == brute_force(
            schema, rows, query
        )

    def test_delta_tuples_respect_tie_breaking(self):
        schema = Schema.of(
            [selection_attr("a1", 2), ranking_attr("n1"), ranking_attr("n2")]
        )
        rows = [(0, 0.5, 0.5) for _ in range(4)]
        db = Database()
        table = db.load_table("R", schema, rows)
        cube = RankingCube.build(table, block_size=4)
        executor = RankingCubeExecutor(cube, table)
        # delta tuples tie with the materialized ones
        table.insert_rows([(0, 0.5, 0.5), (0, 0.5, 0.5)])
        cube.refresh_delta(table)
        query = TopKQuery(5, {"a1": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        assert [r.tid for r in result.rows] == [0, 1, 2, 3, 4]


class TestValidation:
    def test_unknown_ranking_dim_rejected(self):
        db, table, rows, schema, executor = make_env()
        query = TopKQuery(3, {}, LinearFunction(["zz"], [1.0]))
        with pytest.raises(CubeError):
            executor.execute(query)

    def test_schema_validation_applied(self):
        db, table, rows, schema, executor = make_env(cards=(4, 5))
        query = TopKQuery(3, {"a1": 99}, LinearFunction(["n1", "n2"], [1, 1]))
        with pytest.raises(QueryError):
            executor.execute(query)
