"""Tests for the many-ranking-dimensions extension (Section 6).

One ranking cube is built per group of ranking dimensions, and the router
sends each query to a cube whose grid covers its function.  Coverage is
part of the one cost model: ``estimate_cube_cost`` raises ``CubeError``
for a grid that lacks a ranking dimension of the query (the router prices
that cube at inf), and prices the columns of tied blocks a grid makes a
function visit along the dimensions it ignores.
"""

import random
from itertools import combinations

import pytest

from repro.core import CubeError, RankingCube, RankingCubeExecutor
from repro.core.estimate import estimate_cube_cost
from repro.ranking import LinearFunction, LpDistance
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import AdaptiveRouter, CubePath
from repro.storage.device import RANDOM_READ_WEIGHT
from repro.workloads.oracle import brute_force_topk as brute_force


def make_env(num_rank=4, num_rows=1200, seed=37, ranking_groups=None):
    """A relation, one cube per ranking group (default: every pair) and a
    router over the cubes, each path named after its grid."""
    schema = Schema.of(
        [selection_attr("a1", 4), selection_attr("a2", 3)]
        + [ranking_attr(f"n{j}") for j in range(1, num_rank + 1)]
    )
    rng = random.Random(seed)
    rows = [
        (rng.randrange(4), rng.randrange(3))
        + tuple(rng.random() for _ in range(num_rank))
        for _ in range(num_rows)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    if ranking_groups is None:
        ranking_groups = list(combinations(schema.ranking_names, 2))
    cubes = [
        RankingCube.build(table, ranking_dims=group, block_size=25)
        for group in ranking_groups
    ]
    router = AdaptiveRouter(
        table,
        [
            CubePath(",".join(c.grid.dims), c, table, RankingCubeExecutor(c, table))
            for c in cubes
        ],
        probe_margin=1.0,
    )
    return db, table, rows, schema, router


def grid_of(router, name):
    return router.paths[name].cube.grid.dims


class TestBuild:
    def test_empty_cubes_rejected(self):
        _db, table, _rows, _schema, _router = make_env(num_rank=2)
        with pytest.raises(ValueError, match="at least one"):
            AdaptiveRouter(table, [])


class TestRouting:
    def test_exact_group_preferred(self):
        _db, _t, _rows, _schema, router = make_env(
            num_rank=3, ranking_groups=[("n1", "n2"), ("n1", "n2", "n3")]
        )
        query = TopKQuery(3, {}, LinearFunction(["n1", "n2"], [1, 1]))
        decision = router.decide(query)
        assert grid_of(router, decision.path) == ("n1", "n2")
        assert decision.analytic["n1,n2"] < decision.analytic["n1,n2,n3"]

    def test_single_dim_routes_to_covering_pair(self):
        _db, _t, _rows, _schema, router = make_env(num_rank=4)
        query = TopKQuery(3, {}, LinearFunction(["n3"], [1.0]))
        router.execute(query)
        assert "n3" in grid_of(router, router.last_decision.path)

    def test_uncoverable_rejected(self):
        _db, _t, _rows, _schema, router = make_env(
            num_rank=4, ranking_groups=[("n1", "n2"), ("n1", "n3")]
        )
        query = TopKQuery(3, {}, LinearFunction(["n3", "n4"], [1, 1]))
        with pytest.raises(CubeError, match="available grids") as raised:
            router.decide(query)
        assert "('n1', 'n2')" in str(raised.value)
        assert "('n1', 'n3')" in str(raised.value)


class TestExecution:
    def test_pairwise_queries_match_brute_force(self):
        _db, _t, rows, schema, router = make_env(num_rank=4)
        rng = random.Random(7)
        for _ in range(10):
            dims = rng.sample(["n1", "n2", "n3", "n4"], 2)
            fn = (
                LinearFunction(dims, [1.0, rng.uniform(0.2, 2)])
                if rng.random() < 0.5
                else LpDistance(dims, [rng.random(), rng.random()])
            )
            selections = {"a1": rng.randrange(4)} if rng.random() < 0.7 else {}
            query = TopKQuery(6, selections, fn)
            result = router.execute(query)
            expected = brute_force(schema, rows, query)
            assert [r.score for r in result.rows] == pytest.approx(
                [s for s, _t in expected]
            )

    def test_single_dim_query(self):
        _db, _t, rows, schema, router = make_env(num_rank=3)
        query = TopKQuery(5, {"a2": 1}, LinearFunction(["n2"], [1.0]))
        result = router.execute(query)
        expected = brute_force(schema, rows, query)
        assert [r.score for r in result.rows] == pytest.approx(
            [s for s, _t in expected]
        )


class TestCostModel:
    @staticmethod
    def cubes():
        db, table, _rows, _schema, router = make_env(
            num_rank=3, ranking_groups=[("n1", "n2"), ("n1", "n2", "n3")]
        )
        return db, table, router.paths["n1,n2"].cube, router.paths["n1,n2,n3"].cube

    def test_uncovered_ranking_dimension_raises(self):
        _db, table, pair, _triple = self.cubes()
        query = TopKQuery(3, {}, LinearFunction(["n1", "n3"], [1, 1]))
        with pytest.raises(CubeError, match="n3"):
            estimate_cube_cost(pair, table, query)

    def test_ignored_grid_dimensions_are_priced_in_whole_tied_columns(self):
        """A function over (n1, n2) gives every block of an n3 column
        the same bound, so on the (n1, n2, n3) grid the expected block
        count rounds up from 1 to a whole column of 4 (pages 4 -> 7, with
        3 directory descents) — what the search actually reads there."""
        db, table, pair, triple = self.cubes()
        query = TopKQuery(3, {}, LinearFunction(["n1", "n2"], [1, 1]))
        assert triple.grid.bins_per_dim[2] == 4
        priced = [estimate_cube_cost(c, table, query).pages for c in (pair, triple)]
        assert priced == [4.0, 7.0]
        blocks = []
        for cube in (pair, triple):
            db.cold_cache()
            blocks.append(RankingCubeExecutor(cube, table).execute(query).blocks_accessed)
        assert blocks == [1, 4]

    @pytest.mark.parametrize(
        "grid, k, selections, fn, pages",
        [
            ("n1,n2", 3, {}, LinearFunction(["n1", "n2"], [1, 1]), 4.0),
            ("n1,n2", 20, {"a1": 2}, LpDistance(["n2", "n1"], [0.3, 0.6]), 8.0),
            ("n1,n2", 6, {"a1": 1, "a2": 0}, LinearFunction(["n1", "n2"], [2, 1]), 8.0),
            ("n1,n2,n3", 5, {"a2": 1}, LinearFunction(["n1", "n2", "n3"], [1, 1, 1]), 5.0),
            ("n1,n2,n3", 300, {}, LpDistance(["n1", "n2", "n3"], [0.5] * 3), 19.0),
        ],
    )
    def test_a_function_over_every_grid_dimension_prices_as_before(
        self, grid, k, selections, fn, pages
    ):
        """Literals from the cost model before it priced tied columns."""
        _db, table, pair, triple = self.cubes()
        cube = {"n1,n2": pair, "n1,n2,n3": triple}[grid]
        estimate = estimate_cube_cost(cube, table, TopKQuery(k, selections, fn))
        assert (estimate.pages, estimate.io_cost) == (pages, RANDOM_READ_WEIGHT * pages)
