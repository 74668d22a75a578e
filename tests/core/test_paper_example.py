"""The paper's running example, end to end (Sections 3.1-3.2, Tables 1-6).

The example: a tiny database with selection dimensions A1, A2 and ranking
dimensions N1, N2, partitioned into 16 base blocks by the explicit bin
boundaries ``Bin N1 = [0, .4, .45, .8, 1]``, ``Bin N2 = [0, .2, .45, .9, 1]``
(Table 4); cardinalities 2 and 2 give scale factor 2 and 4 pseudo blocks
(Example 3 / Figure 2); the demonstration query is::

    SELECT TOP 2 FROM R WHERE A1 = 1 AND A2 = 1 ORDER BY N1 + N2

Section 3.2.3 walks the algorithm: first candidate block b1 (the block
containing the minimizer (0,0)); its pseudo block returns t1(b1), t4(b1)
and buffers t3(b5); base block b1 scores f(t1)=0.1, f(t4)=0.5; frontier
H = {b2: 0.4, b5: 0.2}; since S_2 = 0.5 > 0.2 the algorithm continues with
b5, scores f(t3)=0.3 from the buffer without re-reading the cuboid, leaving
H = {b2: 0.4, b9: 0.45, b6: 0.6}; now S_2 = 0.3 <= 0.4 = S_unseen, stop.
Answer: t1, t3.

The paper's tuple ids are 1-based and its exact Table 1 values are not all
legible in the source text; we reconstruct tuples consistent with every
number the walkthrough states (block memberships, scores, bounds).
"""

import pytest

from repro.core import (
    ExecutorTrace,
    RankingCube,
    RankingCubeExecutor,
    grid_from_boundaries,
    scale_factor,
)
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr

#: Bin boundaries from Table 4 of the paper.
BIN_N1 = (0.0, 0.4, 0.45, 0.8, 1.0)
BIN_N2 = (0.0, 0.2, 0.45, 0.9, 1.0)

#: Reconstructed Table 1 (0-based tids; paper tuple t_i = tid i-1).
#: (A1, A2, N1, N2)
ROWS = [
    (1, 1, 0.05, 0.05),  # t1: block b1, f = 0.10
    (0, 0, 0.90, 0.95),  # t2: far corner, different cell
    (1, 1, 0.05, 0.25),  # t3: block b5, f = 0.30
    (1, 1, 0.35, 0.15),  # t4: block b1, f = 0.50
    (1, 0, 0.50, 0.50),  # t5: same A1, different A2
]

# paper block ids are 1-based over a 4x4 grid, first row b1..b4
def paper_bid(grid, number):
    row, col = divmod(number - 1, 4)
    return grid.bid_of((col, row))


@pytest.fixture()
def example():
    schema = Schema.of(
        [
            selection_attr("A1", 2),
            selection_attr("A2", 2),
            ranking_attr("N1"),
            ranking_attr("N2"),
        ]
    )
    db = Database()
    table = db.load_table("R", schema, ROWS)
    grid = grid_from_boundaries(("N1", "N2"), [BIN_N1, BIN_N2])
    cube = RankingCube.build(table, grid=grid, block_size=30)
    return db, table, grid, cube, RankingCubeExecutor(cube, table)


class TestGeometryPartition:
    def test_sixteen_base_blocks(self, example):
        _db, _t, grid, _cube, _ex = example
        assert grid.num_blocks == 16
        assert grid.bins_per_dim == (4, 4)

    def test_tuple_block_assignments(self, example):
        _db, _t, grid, _cube, _ex = example
        assert grid.locate((0.05, 0.05)) == paper_bid(grid, 1)   # t1 in b1
        assert grid.locate((0.35, 0.15)) == paper_bid(grid, 1)   # t4 in b1
        assert grid.locate((0.05, 0.25)) == paper_bid(grid, 5)   # t3 in b5

    def test_meta_information(self, example):
        _db, _t, _grid, cube, _ex = example
        assert cube.bin_boundaries["N1"] == BIN_N1
        assert cube.bin_boundaries["N2"] == BIN_N2


class TestPseudoBlocking:
    def test_scale_factor_is_two(self, example):
        _db, _t, _grid, cube, _ex = example
        # Example 3: cardinalities 2 and 2 -> sf 2, 4 pseudo blocks
        assert scale_factor([2, 2], 2) == 2
        cuboid = cube.cuboid(("A1", "A2"))
        assert cuboid.scale_factor == 2
        assert cuboid.pseudo.num_pseudo_blocks == 4

    def test_table3_cell_contents(self, example):
        _db, _t, grid, cube, _ex = example
        cuboid = cube.cuboid(("A1", "A2"))
        # cell (1, 1, p1): t1(b1), t3(b5), t4(b1) — Table 3's first row
        entries = sorted(cuboid.get_pseudo_block((1, 1), 0))
        assert entries == [
            (0, paper_bid(grid, 1)),
            (2, paper_bid(grid, 5)),
            (3, paper_bid(grid, 1)),
        ]

    def test_pid_mapping_of_b1_and_b5(self, example):
        _db, _t, grid, cube, _ex = example
        cuboid = cube.cuboid(("A1", "A2"))
        assert cuboid.pid_of_bid(paper_bid(grid, 1)) == 0
        assert cuboid.pid_of_bid(paper_bid(grid, 5)) == 0  # same pseudo block


class TestBlockBounds:
    def test_frontier_scores_from_section_323(self, example):
        _db, _t, grid, _cube, _ex = example
        fn = LinearFunction(["N1", "N2"], [1.0, 1.0])
        positions = grid.project(fn.dims)

        def bound(number):
            lower, upper = grid.sub_box(paper_bid(grid, number), positions)
            return fn.min_over_box(lower, upper)

        assert bound(1) == pytest.approx(0.0)
        assert bound(2) == pytest.approx(0.4)   # "b2 has the best score .4"
        assert bound(5) == pytest.approx(0.2)   # "b5 has the best score .2"
        assert bound(6) == pytest.approx(0.6)   # stage 2: f(b6) = .6
        assert bound(9) == pytest.approx(0.45)  # stage 2: f(b9) = .45


class TestQueryWalkthrough:
    def query(self):
        return TopKQuery(2, {"A1": 1, "A2": 1}, LinearFunction(["N1", "N2"], [1, 1]))

    def test_answer_is_t1_and_t3(self, example):
        _db, _t, _grid, _cube, executor = example
        result = executor.execute(self.query())
        assert result.tids == [0, 2]  # paper's t1, t3
        assert result.scores == pytest.approx([0.1, 0.3])

    def test_candidate_blocks_visited_in_paper_order(self, example):
        _db, _t, grid, _cube, executor = example
        trace = ExecutorTrace()
        executor.execute(self.query(), trace=trace)
        # stage 1 examines b1, stage 2 examines b5, then the stop condition
        # S_2 = 0.3 <= S_unseen = 0.4 halts before b2
        assert trace.candidate_bids == [paper_bid(grid, 1), paper_bid(grid, 5)]

    def test_second_bid_served_from_buffer(self, example):
        _db, _t, _grid, _cube, executor = example
        trace = ExecutorTrace()
        executor.execute(self.query(), trace=trace)
        # b1 and b5 share pseudo block p1: one cuboid fetch opens it, and
        # both bids' tid lists come from the buffer
        assert trace.pseudo_entries == 1
        assert trace.pseudo_block_fetches == 1
        assert trace.pseudo_block_buffer_hits == 2
        assert trace.base_block_reads == 2

    def test_tuples_examined(self, example):
        _db, _t, _grid, _cube, executor = example
        result = executor.execute(self.query())
        # t1, t4 from b1; t3 from b5
        assert result.tuples_examined == 3

    def test_rollup_on_a2(self, example):
        # the introduction's motivating analysis: drop one condition
        _db, _t, _grid, _cube, executor = example
        query = TopKQuery(2, {"A1": 1}, LinearFunction(["N1", "N2"], [1, 1]))
        result = executor.execute(query)
        assert result.tids == [0, 2]

    def test_top3_includes_t4(self, example):
        _db, _t, _grid, _cube, executor = example
        query = TopKQuery(3, {"A1": 1, "A2": 1}, LinearFunction(["N1", "N2"], [1, 1]))
        result = executor.execute(query)
        assert result.tids == [0, 2, 3]
        assert result.scores == pytest.approx([0.1, 0.3, 0.5])
