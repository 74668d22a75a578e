"""Figure 8: query cost vs. selection-dimension cardinality C.

Paper shape: increasing C favors the Baseline (selections filter more);
the ranking cube's cost bumps up at moderate C (sparser pseudo blocks
force more base-block verifications) and recovers at high C, where most
pseudo-block probes find empty cells and skip the base block entirely —
the robustness of combining the two access methods (Section 3.2.1).
"""

import pytest

from conftest import emit
from repro.bench import METHOD_RANKING_CUBE, build_environment
from repro.bench.experiments import fig08_cardinality
from repro.core import ExecutorTrace
from repro.workloads import QueryGenerator, QuerySpec, SyntheticSpec, generate


@pytest.fixture(scope="module")
def result(bench_tuples, bench_queries):
    return fig08_cardinality(
        num_tuples=bench_tuples, queries_per_point=bench_queries
    )


def test_fig08_shape_and_empty_cell_skip(benchmark, result, bench_tuples):
    emit(result)
    baseline = result.series("baseline", "tuples_examined")
    # BL examines ever fewer tuples as C grows
    assert baseline[-1] < baseline[0]
    cube_pages = result.series("ranking_cube", "pages_read")
    # RC stays bounded across the whole sweep (robustness claim): no point
    # costs more than a small multiple of the cheapest point
    assert max(cube_pages) < 8 * max(1.0, min(cube_pages))

    # empty cells cost no base-block read at high cardinality: an opened
    # pseudo block pushes only its non-empty bids, and a bid popped either
    # reads its block or is emptied by a covering-cuboid intersection
    dataset = generate(
        SyntheticSpec(cardinality=100, num_tuples=bench_tuples, seed=43)
    )
    env = build_environment(dataset, (METHOD_RANKING_CUBE,))
    query = QueryGenerator(dataset.schema, QuerySpec(seed=7)).generate()
    executor = env.executors[METHOD_RANKING_CUBE]
    trace = ExecutorTrace()
    env.db.cold_cache()
    executor.execute(query, trace=trace)
    assert trace.pseudo_entries > 0
    assert trace.base_block_reads + trace.empty_cells_skipped == len(
        trace.candidate_bids
    )

    def run():
        env.db.cold_cache()
        return executor.execute(query)

    benchmark(run)
