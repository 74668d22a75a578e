"""Ablation benchmarks for the design choices DESIGN.md §6 calls out.

* partitioning strategy (equi-depth vs. equi-width) on skewed data,
* micro-benchmarks of the structural primitives the query path leans on
  (block bound computation, pseudo-block mapping, covering selection).
"""

import pytest

from conftest import emit
from repro.bench.experiments import ablation_partitioner
from repro.core import BlockGrid, PseudoBlockMap, RankingCube
from repro.ranking import LinearFunction
from repro.relational import Database
from repro.workloads import SyntheticSpec, generate


def test_partitioner_ablation(benchmark, bench_tuples, bench_queries):
    result = ablation_partitioner(
        num_tuples=bench_tuples, queries_per_point=bench_queries
    )
    emit(result)
    depth = result.points[0].metrics["ranking_cube"]
    width = result.points[1].metrics["ranking_cube"]
    # on gaussian data equi-depth should not lose badly to equi-width;
    # typically it wins by adapting bin widths to density
    assert depth.pages_read < 2 * width.pages_read

    # benchmark the partition build itself on skewed data
    dataset = generate(
        SyntheticSpec(
            num_tuples=bench_tuples, ranking_distribution="gaussian", seed=79
        )
    )
    columns = list(zip(*(row[3:] for row in dataset.rows)))

    from repro.core import EquiDepthPartitioner

    def build():
        return EquiDepthPartitioner().build_grid(("n1", "n2"), columns, 30)

    grid = benchmark(build)
    assert grid.num_blocks > 1


def test_bound_and_pid_hot_path(benchmark):
    # micro-benchmark the hot structural path: block bound + pid mapping
    grid = BlockGrid(
        ("n1", "n2"),
        (tuple(i / 50 for i in range(51)), tuple(i / 50 for i in range(51))),
    )
    pseudo = PseudoBlockMap(grid, sf=4)
    fn = LinearFunction(["n1", "n2"], [1.0, 0.3])
    positions = (0, 1)

    def hot_path():
        total = 0.0
        for bid in range(0, grid.num_blocks, 7):
            lower, upper = grid.sub_box(bid, positions)
            total += fn.min_over_box(lower, upper)
            total += pseudo.pid_of_bid(bid)
        return total

    benchmark(hot_path)


def test_covering_selection_benchmark(benchmark, bench_tuples):
    # covering-cuboid selection over a 12-dim fragment family
    dataset = generate(
        SyntheticSpec(num_selection_dims=12, num_tuples=2000, seed=83)
    )
    db = Database()
    table = dataset.load_into(db)
    from repro.core import FragmentedRankingCube

    cube = FragmentedRankingCube.build_fragments(table, fragment_size=2)

    def cover():
        return cube.covering_cuboids(("a1", "a4", "a9"))

    covering = benchmark(cover)
    assert len(covering) == 3


def test_pseudo_blocking_ablation(benchmark, bench_tuples, bench_queries):
    from repro.bench.experiments import ablation_pseudo_blocking

    result = ablation_pseudo_blocking(
        num_tuples=bench_tuples, queries_per_point=bench_queries
    )
    emit(result)
    on = result.points[0].metrics["ranking_cube"]
    off = result.points[1].metrics["ranking_cube"]
    # pseudo blocking never reads more pages than the sf=1 layout
    assert on.pages_read <= off.pages_read * 1.1

    # micro-benchmark: the pid mapping across a large grid
    from repro.core import BlockGrid, PseudoBlockMap

    grid = BlockGrid(
        ("n1", "n2"),
        (tuple(i / 100 for i in range(101)), tuple(i / 100 for i in range(101))),
    )
    pseudo = PseudoBlockMap(grid, sf=7)

    def map_all():
        return sum(pseudo.pid_of_bid(bid) for bid in range(0, grid.num_blocks, 13))

    benchmark(map_all)
