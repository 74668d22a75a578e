"""Extra experiment: Onion [8] and PREFER [6] vs. the ranking cube.

Quantifies the paper's Section 1 motivation: both prior-art rank-aware
structures answer pure ranking queries well but are "not aware of the
multi-dimensional selection conditions" — every added equality condition
multiplies their fetch-and-filter work, while the ranking cube barely
notices.
"""

import pytest

from conftest import emit
from repro.baselines import OnionIndex, PreferView
from repro.bench.experiments import extra_prior_art
from repro.ranking import LinearFunction
from repro.relational import Database, TopKQuery
from repro.workloads import SyntheticSpec, generate


@pytest.fixture(scope="module")
def result(bench_tuples, bench_queries):
    return extra_prior_art(
        num_tuples=bench_tuples, queries_per_point=bench_queries
    )


def test_prior_art_degrades_with_selections(benchmark, result, bench_tuples):
    emit(result)
    onion = result.series("onion", "pages_read")
    prefer = result.series("prefer", "pages_read")
    cube = result.series("ranking_cube", "pages_read")
    # with selections the cube beats both prior-art structures
    assert cube[2] < onion[2]
    assert cube[2] < prefer[2]
    # and the prior art degrades sharply from s=0 to s=2
    assert onion[2] > 5 * max(1.0, onion[0])
    assert prefer[2] > 5 * max(1.0, prefer[0])
    # while the cube stays within a small factor
    assert cube[2] < 10 * max(1.0, cube[0])

    # benchmark Onion's sweet spot — the pure ranking query — for context
    dataset = generate(SyntheticSpec(num_tuples=min(bench_tuples, 10_000), seed=103))
    db = Database()
    table = dataset.load_into(db)
    onion_index = OnionIndex(table)
    query = TopKQuery(10, {}, LinearFunction(["n1", "n2"], [1.0, 0.5]))

    def run():
        return onion_index.execute(query)

    answer = benchmark(run)
    assert len(answer.rows) == 10


def test_prefer_view_build_benchmark(benchmark, bench_tuples):
    dataset = generate(SyntheticSpec(num_tuples=min(bench_tuples, 10_000), seed=104))
    db = Database()
    table = dataset.load_into(db)

    def build():
        return PreferView(table)

    view = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(view) == min(bench_tuples, 10_000)


def test_hybrid_routing_tracks_cheaper_path(benchmark, bench_tuples, bench_queries):
    from repro.bench.experiments import extra_hybrid_routing

    result = extra_hybrid_routing(
        num_tuples=bench_tuples, queries_per_point=bench_queries
    )
    emit(result, metric="io_cost")
    baseline = result.series("baseline", "io_cost")
    cube = result.series("ranking_cube", "io_cost")
    hybrid = result.series("hybrid", "io_cost")
    for bl, rc, hy in zip(baseline, cube, hybrid):
        # the hybrid never does worse than both fixed paths, and stays
        # within the cost-model's slack of the better one
        assert hy <= max(bl, rc) + 1e-9
        assert hy <= 2.0 * min(bl, rc) + 30

    # micro-benchmark the routing decision itself (it runs per query)
    from repro.core import RankingCube
    from repro.ranking import LinearFunction
    from repro.relational import Database, TopKQuery
    from repro.route import AdaptiveRouter
    from repro.workloads import SyntheticSpec, generate

    dataset = generate(SyntheticSpec(num_tuples=4000, seed=109))
    db = Database()
    table = dataset.load_into(db)
    for name in dataset.schema.selection_names:
        table.create_secondary_index(name)
    router = AdaptiveRouter.for_cube(
        RankingCube.build(table), table, probe_margin=1.0
    )
    query = TopKQuery(5, {"a1": 1}, LinearFunction(["n1", "n2"], [1, 1]))

    def decide():
        return router.decide(query)

    decision = benchmark(decide)
    assert decision.analytic["cube"] > 0
    assert decision.analytic["baseline"] > 0
