"""Golden-trace snapshots for any-k enumeration and reverse top-k.

The executor goldens pin the one-shot ``query`` span; this suite pins
the two new scenario span families on the same seeded cube:

* ``anyk_query`` — an enumeration cursor opened on the bare executor,
  stepped through a fixed batch schedule under an
  externally-opened root span (the serving layers build the same root
  at cursor close),
* ``reverse_query`` — :func:`repro.core.reverse.reverse_topk`'s own
  root with one ``reverse_function`` child per candidate weight vector.

Structure, attributes, and counters (no wall time) must match the
checked-in snapshots under ``tests/obs/golden/``.  After an intentional
change re-bless with::

    pytest tests/obs/test_golden_anyk_traces.py --update-golden

and review the golden-file diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.core.cube import RankingCube
from repro.core.executor import RankingCubeExecutor
from repro.core.reverse import ReverseTopKQuery, reverse_topk, simplex_grid_family
from repro.obs.export import canonical_span, span_diff
from repro.obs.tracing import DEFAULT_WATCHED_METRICS, Tracer
from repro.ranking.functions import LinearFunction
from repro.relational.database import Database
from repro.relational.query import TopKQuery
from repro.workloads.synthetic import SyntheticSpec, generate

pytestmark = [pytest.mark.anyk, pytest.mark.reverse]

GOLDEN_DIR = Path(__file__).parent / "golden"
SEED = 7
BATCH_SCHEDULE = (10, 25)  # fixed next_batch sizes behind every snapshot

#: name -> (k, selections); same canonical selections the query goldens use.
ANYK_CASES = {
    "anyk_sel1_low_k": (3, {"a1": 2}),
    "anyk_sel2_high_k": (40, {"a1": 2, "a3": 1}),
}

#: name -> (k, selections); the target tid is the first matching row.
REVERSE_CASES = {
    "reverse_sel1": (5, {"a1": 2}),
    "reverse_sel3": (3, {"a1": 2, "a2": 4, "a3": 1}),
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
    return db, table, cube, dataset


def _tracer(db):
    return Tracer(db.pool.registry, watch=DEFAULT_WATCHED_METRICS)


def _run_anyk(environment, name):
    db, table, cube, _dataset = environment
    k, selections = ANYK_CASES[name]
    query = TopKQuery(k, selections, LinearFunction(["n1", "n2"], [0.6, 0.4]))
    db.cold_cache()
    executor = RankingCubeExecutor(cube, table)
    tracer = _tracer(db)
    # the bare executor has no serving front end to fold spans for it, so
    # open the root here; anyk_open / anyk_batch children nest under it
    with tracer.span(
        "anyk_query",
        k=k,
        selections=dict(sorted(selections.items())),
        ranking="n1,n2",
    ):
        cursor = executor.open_search(query, tracer=tracer)
        for count in BATCH_SCHEDULE:
            cursor.next_batch(count)
    return canonical_span(tracer.root)


def _run_reverse(environment, name):
    db, table, cube, dataset = environment
    k, selections = REVERSE_CASES[name]
    schema = dataset.schema
    tid = next(
        t
        for t, row in enumerate(dataset.rows)
        if all(row[schema.position(n)] == v for n, v in selections.items())
    )
    query = ReverseTopKQuery(
        tid, k, selections, simplex_grid_family(["n1", "n2"], 4)
    )
    db.cold_cache()
    executor = RankingCubeExecutor(cube, table)
    tracer = _tracer(db)
    reverse_topk(executor, query, tracer=tracer)
    return canonical_span(tracer.root)


RUNNERS = {name: _run_anyk for name in ANYK_CASES}
RUNNERS.update((name, _run_reverse) for name in REVERSE_CASES)


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_golden_anyk_reverse_trace(environment, update_golden, name):
    actual = RUNNERS[name](environment, name)
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


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_traces_are_deterministic(environment, name):
    first = RUNNERS[name](environment, name)
    second = RUNNERS[name](environment, name)
    assert span_diff(first, second) == []


def test_anyk_trace_shape(environment):
    trace = _run_anyk(environment, "anyk_sel1_low_k")
    assert trace["name"] == "anyk_query"
    names = [c["name"] for c in trace["children"]]
    assert names.count("anyk_open") == 1
    assert names.count("anyk_batch") == len(BATCH_SCHEDULE)
    batches = [c for c in trace["children"] if c["name"] == "anyk_batch"]
    assert [b["attributes"]["requested"] for b in batches] == list(BATCH_SCHEDULE)
    assert [b["counters"]["rows"] for b in batches] == list(BATCH_SCHEDULE)


def test_reverse_trace_shape(environment):
    trace = _run_reverse(environment, "reverse_sel1")
    assert trace["name"] == "reverse_query"
    functions = [c for c in trace["children"] if c["name"] == "reverse_function"]
    assert len(functions) == trace["attributes"]["functions"] == 5
    assert trace["counters"]["qualifying"] == sum(
        f["counters"].get("in_topk", 0) for f in functions
    )
