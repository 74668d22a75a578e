"""Beyond the paper's core: the Section 6 extensions in action.

Three features the paper sketches as extensions/future work, implemented
here:

1. **Incremental maintenance** — tuples inserted after the cube build land
   in a delta store and are visible to queries immediately; a rebuild
   folds them in when the delta outgrows a threshold.
2. **Workload-aware fragment grouping** — dimensions that co-occur in the
   query log share a fragment, so hot queries avoid online intersection.
3. **Many ranking dimensions** — the router over cubes built on
   ranking-dimension groups serves functions over any covered subset.

Run with:  python examples/advanced_features.py
"""

import random

from repro import (
    Database,
    FragmentedRankingCube,
    LinearFunction,
    RankingCube,
    RankingCubeExecutor,
    Schema,
    TopKQuery,
)
from repro.core import (
    cooccurrence_grouping,
    evenly_partition,
    expected_covering_fragments,
)
from repro.relational import ranking_attr, selection_attr
from repro.route import AdaptiveRouter, CubePath
from repro.workloads import SyntheticSpec, generate


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


def workload_aware_fragments() -> None:
    print("\n=== 2. workload-aware fragment grouping ===")
    dataset = generate(SyntheticSpec(num_selection_dims=8, num_tuples=8_000, seed=6))
    db = Database()
    table = dataset.load_into(db)
    dims = dataset.schema.selection_names

    # the query log pairs distant dimensions — worst case for even grouping
    rng = random.Random(1)
    workload = [("a1", "a8"), ("a2", "a7"), ("a3", "a6"), ("a4", "a5")] * 10

    even = evenly_partition(dims, 2)
    aware = cooccurrence_grouping(dims, workload, 2)
    print(f"even grouping:  {even}")
    print(f"  avg covering fragments: "
          f"{expected_covering_fragments(even, workload):.2f}")
    print(f"aware grouping: {aware}")
    print(f"  avg covering fragments: "
          f"{expected_covering_fragments(aware, workload):.2f}")

    cube = FragmentedRankingCube.build_fragments(table, fragments=aware)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(
        5,
        {"a1": rng.randrange(10), "a8": rng.randrange(10)},
        LinearFunction(["n1", "n2"], [1, 1]),
    )
    covering = cube.covering_cuboids(query.selection_names)
    print(f"hot query (a1, a8) is covered by {len(covering)} cuboid(s): "
          f"{[c.name for c in covering]}")
    print(f"answer: {executor.execute(query).tids}")


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
        probe_margin=1.0,
    )
    print(f"grids: {list(router.paths)}")
    for dims, weights in ((["n3", "n4"], [1.0, 0.5]), (["n1", "n4"], [2.0, 1.0])):
        query = TopKQuery(3, {"a1": 1}, LinearFunction(dims, weights))
        result = router.execute(query)
        print(f"query on {dims} -> cube {router.last_decision.path}: "
              f"top-3 {result.tids}")


if __name__ == "__main__":
    incremental_updates()
    workload_aware_fragments()
    many_ranking_dimensions()
