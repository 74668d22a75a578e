"""Golden-trace snapshot tests for six canonical queries.

Each canonical query — selection count (1 / 2 / 3 dims) crossed with low
and high ``k`` — runs against a fixed seeded cube from a cold cache, and
its **canonical span tree** (structure + attributes + counters, no wall
time — see :func:`repro.obs.export.canonical_span`) must match the
checked-in snapshot under ``tests/obs/golden/``.

A mismatch fails with a per-span, per-counter readable diff.  After an
*intentional* executor or tracing change, re-bless the snapshots with::

    pytest tests/obs/test_golden_traces.py --update-golden

and review the golden-file diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.core.cube import RankingCube
from repro.core.executor import RankingCubeExecutor
from repro.obs.export import canonical_span, span_diff
from repro.obs.tracing import DEFAULT_WATCHED_METRICS, Tracer
from repro.ranking.functions import LinearFunction
from repro.relational.database import Database
from repro.relational.query import TopKQuery
from repro.workloads.synthetic import SyntheticSpec, generate

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7

#: name -> (k, selections); the ranking function is fixed across cases.
CANONICAL_QUERIES = {
    "sel1_low_k": (3, {"a1": 2}),
    "sel1_high_k": (40, {"a1": 2}),
    "sel2_low_k": (3, {"a1": 2, "a3": 1}),
    "sel2_high_k": (40, {"a1": 2, "a3": 1}),
    "sel3_low_k": (3, {"a1": 2, "a2": 4, "a3": 1}),
    "sel3_high_k": (40, {"a1": 2, "a2": 4, "a3": 1}),
}


@pytest.fixture(scope="module")
def environment():
    dataset = generate(
        SyntheticSpec(
            num_selection_dims=3,
            num_ranking_dims=2,
            num_tuples=1_500,
            cardinality=6,
            selection_distribution="zipf",
            seed=SEED,
        )
    )
    db = Database(buffer_capacity=256)
    table = dataset.load_into(db)
    cube = RankingCube.build(table, block_size=20)
    return db, table, cube


def _run_canonical(environment, name):
    db, table, cube = environment
    k, selections = CANONICAL_QUERIES[name]
    query = TopKQuery(k, selections, LinearFunction(["n1", "n2"], [0.6, 0.4]))
    # cold cache + fresh executor: the trace depends only on the seed and
    # the query, never on which other canonical queries ran first
    db.cold_cache()
    executor = RankingCubeExecutor(cube, table)
    tracer = Tracer(db.pool.registry, watch=DEFAULT_WATCHED_METRICS)
    executor.execute(query, tracer=tracer)
    return canonical_span(tracer.root)


@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
def test_golden_trace(environment, update_golden, name):
    actual = _run_canonical(environment, name)
    golden_path = GOLDEN_DIR / f"{name}.json"
    if update_golden:
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        return
    assert golden_path.exists(), (
        f"missing golden snapshot {golden_path}; "
        f"generate it with --update-golden"
    )
    expected = json.loads(golden_path.read_text())
    diffs = span_diff(expected, actual)
    assert not diffs, (
        f"trace for {name!r} drifted from {golden_path.name}:\n  "
        + "\n  ".join(diffs)
        + "\n(re-bless with --update-golden if the change is intentional)"
    )


@pytest.mark.parametrize("name", sorted(CANONICAL_QUERIES))
def test_canonical_traces_are_deterministic(environment, name):
    # two consecutive runs of the same query produce identical canonical
    # spans — the property that makes golden snapshots meaningful at all
    first = _run_canonical(environment, name)
    second = _run_canonical(environment, name)
    assert span_diff(first, second) == []
