"""How a routed service wires its router (repro.serve.routed).

* The cube path runs on the service's own executor, so every executor
  option of the service — the shared caches, and their absence under
  ``share_caches=False`` — holds on the routed path too.
* A constructor that rejects its arguments does so before the service
  hooks its pseudo-block cache on the cube, so no listener is left
  behind.
"""

import random

import pytest

from repro.core import RankingCube, RankingCubeExecutor
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import AdvisorError
from repro.serve import RoutedQueryService

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_env(seed=43, count=400):
    rng = random.Random(seed)
    rows = [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]
    db = Database(buffer_capacity=128)
    table = db.load_table("R", SCHEMA, rows)
    for name in SCHEMA.selection_names:
        table.create_secondary_index(name)
    return table, RankingCube.build(table, block_size=12)


def test_the_cube_path_runs_on_the_service_executor():
    table, cube = make_env()
    with RoutedQueryService(cube, table, workers=1) as service:
        assert service.router.paths["cube"].executor is service.executor


def test_the_cube_path_honours_share_caches_off():
    table, cube = make_env()
    query = TopKQuery(40, {"a1": 1}, LinearFunction(["n1", "n2"], [1.0, 0.5]))
    bare = RankingCubeExecutor(cube, table).execute(query)
    # without shared caches, the cube path is the service's bare executor:
    # every pseudo block it opens is a cold fetch
    with RoutedQueryService(cube, table, workers=1, share_caches=False) as service:
        path = service.router.paths["cube"]
        assert path.executor is service.executor
        assert path.executor.pseudo_cache is None
        assert path.executor.block_cache is None
        result, _observed_io = path.execute(query)
        assert result.rows == bare.rows
        assert result.blocks_accessed == bare.blocks_accessed


@pytest.mark.parametrize(
    "kwargs, error",
    [
        (dict(drift_check_interval=0), ValueError),
        (dict(drift_check_interval=4, drift_threshold=0.5), ValueError),
        (dict(auto_advise_observations=0), AdvisorError),
    ],
    ids=["drift_interval", "drift_threshold", "advise_observations"],
)
def test_a_rejected_constructor_leaves_no_cache_listener(kwargs, error):
    table, cube = make_env()
    assert len(cube._invalidation_listeners) == 0
    with pytest.raises(error):
        RoutedQueryService(cube, table, workers=1, **kwargs)
    assert len(cube._invalidation_listeners) == 0
