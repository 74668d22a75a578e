"""Beyond the paper's core: the Section 6 extensions in action.

Three features the paper sketches as extensions/future work, implemented
here:

1. **Incremental maintenance** — tuples inserted after the cube build land
   in a delta store and are visible to queries immediately; a rebuild
   folds them in when the delta outgrows a threshold.
2. **Offline cuboid design** — the online advisor, fed a prior workload,
   materializes the cuboids the cube's estimate says save the most pages,
   so hot queries avoid online intersection.
3. **Many ranking dimensions** — the router over cubes built on
   ranking-dimension groups serves functions over any covered subset.

Run with:  python examples/advanced_features.py
"""

import random

from repro import (
    Database,
    LinearFunction,
    RankingCube,
    RankingCubeExecutor,
    Schema,
    TopKQuery,
)
from repro.relational import ranking_attr, selection_attr
from repro.route import AdaptiveRouter, CubeAdvisor, CubePath
from repro.workloads import QueryGenerator, QuerySpec, SyntheticSpec, generate


def incremental_updates() -> None:
    print("=== 1. incremental maintenance (delta store) ===")
    dataset = generate(SyntheticSpec(num_tuples=10_000, seed=5))
    db = Database()
    table = dataset.load_into(db)
    cube = RankingCube.build(table)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(3, {"a1": 2, "a2": 5}, LinearFunction(["n1", "n2"], [1, 1]))

    before = executor.execute(query)
    print(f"before insert: top-3 = {before.tids} scores={[f'{s:.3f}' for s in before.scores]}")

    # a batch of new listings arrives, one of them unbeatable
    table.insert_rows([(2, 5, 0, 0.001, 0.001)])
    absorbed = cube.refresh_delta(table)
    after = executor.execute(query)
    print(f"absorbed {absorbed} new tuple(s); top-3 now = {after.tids} "
          f"scores={[f'{s:.3f}' for s in after.scores]}")
    print(f"delta size {cube.delta_size}; needs rebuild at 10%? "
          f"{cube.needs_rebuild(0.1)}")


def offline_cuboid_design() -> None:
    print("\n=== 2. offline cuboid design (the advisor over a prior workload) ===")
    dataset = generate(SyntheticSpec(num_selection_dims=8, num_tuples=8_000, seed=6))
    db = Database()
    table = dataset.load_into(db)
    dims = dataset.schema.selection_names
    cube = RankingCube.build(table, cuboid_sets=[(d,) for d in dims])

    # the prior workload: Section 5's random three-condition queries, and a
    # query log that keeps pairing two distant dimensions
    rng = random.Random(1)
    hot = TopKQuery(
        5,
        {"a1": rng.randrange(10), "a8": rng.randrange(10)},
        LinearFunction(["n1", "n2"], [1, 1]),
    )
    prior = QueryGenerator(dataset.schema, QuerySpec(num_selections=3)).batch(32)
    prior += [hot] * 8
    entries = sum(c.num_entries for c in cube.cuboids.values())
    advisor = CubeAdvisor(
        cube, table, db.pool,
        space_budget_entries=entries + 2 * table.num_rows,  # room for two
        min_observations=len(prior),
    )
    for query in prior:
        advisor.observe(query)
    # promoted by the estimated pages a cuboid saves over the workload,
    # not by how often its shape is asked
    report = advisor.advise_once()
    print(f"promoted {list(report.promoted)}, saving ~{report.benefit:.0f} "
          f"estimated weighted pages over the prior workload")
    covering = cube.covering_cuboids(hot.selection_names)
    print(f"hot query (a1, a8) is covered by {len(covering)} cuboid(s): "
          f"{[c.name for c in covering]}")
    print(f"answer: {RankingCubeExecutor(cube, table).execute(hot).tids}")


def many_ranking_dimensions() -> None:
    print("\n=== 3. many ranking dimensions (one cube per group) ===")
    schema = Schema.of(
        [selection_attr("a1", 5)]
        + [ranking_attr(f"n{j}") for j in range(1, 7)]  # six ranking dims
    )
    rng = random.Random(2)
    rows = [
        (rng.randrange(5),) + tuple(rng.random() for _ in range(6))
        for _ in range(8_000)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    groups = [("n1", "n2"), ("n3", "n4"), ("n5", "n6"), ("n1", "n4")]
    cubes = [RankingCube.build(table, ranking_dims=group) for group in groups]
    # a cube whose grid misses a ranking dimension of the query is priced
    # at inf, so the router sends each query to a covering cube
    router = AdaptiveRouter(
        table,
        [
            CubePath(",".join(c.grid.dims), c, table, RankingCubeExecutor(c, table))
            for c in cubes
        ],
    )
    print(f"grids: {list(router.paths)}")
    for dims, weights in ((["n3", "n4"], [1.0, 0.5]), (["n1", "n4"], [2.0, 1.0])):
        query = TopKQuery(3, {"a1": 1}, LinearFunction(dims, weights))
        result = router.execute(query)
        print(f"query on {dims} -> cube {router.last_decision.path}: "
              f"top-3 {result.tids}")


if __name__ == "__main__":
    incremental_updates()
    offline_cuboid_design()
    many_ranking_dimensions()
