"""Property tests: adaptive routing never changes an answer.

The router's whole contract is that path choice is *invisible* in the
result: whatever the cost book says, whatever it probes, the answer is
the brute-force oracle's, byte for byte.  These suites drive the full
standard path family (cube / baseline) with hypothesis-generated
relations and query streams and check

* answer identity on a pristine device — for the routed choice, for every
  path individually, and across repeated executions of the same stream
  (probe decisions included);
* answer identity through a ``FaultyBlockDevice`` running a seeded
  transient-fault storm behind a deep retry budget — routing on top of a
  retrying stack is still observationally equivalent to the oracle;
* snapshot safety across a drift-triggered online re-partition: an
  any-k cursor opened *before* the grid rebuild keeps enumerating its
  pinned snapshot exactly, while queries routed *after* see the new
  geometry and the absorbed delta exactly.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RankingCube, RankingCubeExecutor
from repro.ranking import LinearFunction, LpDistance
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import AdaptiveRouter, DriftDetector, repartition_cube
from repro.storage import (
    BlockDevice,
    FaultyBlockDevice,
    RetryPolicy,
    transient_fault_plan,
)
from repro.workloads.oracle import brute_force_ranked, brute_force_topk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)
PAGE_SIZE = 512

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, CARDS[0] - 1),
        st.integers(0, CARDS[1] - 1),
        st.floats(0, 1, allow_nan=False, width=32),
        st.floats(0, 1, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=90,
)

selection_strategy = st.dictionaries(
    st.sampled_from(["a1", "a2"]),
    st.integers(0, 2),
    max_size=2,
)

function_strategy = st.one_of(
    st.tuples(
        st.floats(-2, 2, allow_nan=False).filter(lambda w: abs(w) > 1e-3),
        st.floats(-2, 2, allow_nan=False).filter(lambda w: abs(w) > 1e-3),
    ).map(lambda ws: LinearFunction(["n1", "n2"], list(ws))),
    st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    ).map(lambda t: LpDistance(["n1", "n2"], [t[0], t[1]], p=2.0)),
)

queries_strategy = st.lists(
    st.tuples(st.integers(1, 8), selection_strategy, function_strategy).map(
        lambda t: TopKQuery(t[0], t[1], t[2])
    ),
    min_size=1,
    max_size=6,
)


def pairs(result):
    return [(r.score, r.tid) for r in result.rows]


def build_router(db, table):
    for name in SCHEMA.selection_names:
        if name not in table.secondary_indexes:
            table.create_secondary_index(name)
    cube = RankingCube.build(table, block_size=8)
    return AdaptiveRouter.for_cube(cube, table)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(rows=rows_strategy, queries=queries_strategy)
def test_routed_answers_equal_oracle_on_pristine_device(rows, queries):
    db = Database(page_size=PAGE_SIZE, buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    router = build_router(db, table)
    for query in queries:
        expected = brute_force_topk(SCHEMA, rows, query)
        # repeat each query: the first run may probe, later runs exploit —
        # both kinds of decision must be answer-invisible
        for _ in range(3):
            assert pairs(router.execute(query)) == expected
        # and each path agrees individually, not just the routed one
        for path in router.paths.values():
            result, _io = path.execute(query)
            assert pairs(result) == expected


@pytest.mark.faults
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    queries=queries_strategy,
    fault_seed=st.integers(0, 10_000),
)
def test_routed_answers_survive_transient_fault_storms(rows, queries, fault_seed):
    device = FaultyBlockDevice(
        BlockDevice(page_size=PAGE_SIZE), transient_fault_plan(fault_seed)
    )
    # max_attempts=6: retry exhaustion is ~p^6 per access, negligible
    db = Database(
        buffer_capacity=64, device=device, retry_policy=RetryPolicy(max_attempts=6)
    )
    table = db.load_table("R", SCHEMA, rows)
    router = build_router(db, table)
    for query in queries:
        expected = brute_force_topk(SCHEMA, rows, query)
        for _ in range(2):
            db.cold_cache()  # force real reads so the storm can hit
            assert pairs(router.execute(query)) == expected


def drain(cursor, batch=7):
    out = []
    while not cursor.exhausted:
        out.extend(cursor.next_batch(batch))
    return out


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 10_000),
    head_batch=st.integers(1, 10),
    query_k=st.integers(1, 8),
)
def test_open_cursor_is_snapshot_safe_across_repartition(seed, head_batch, query_k):
    """A drift-triggered grid rebuild mid-enumeration must not disturb an
    open cursor (pinned snapshot) nor post-swap queries (new geometry)."""
    rng = random.Random(seed)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(140)
    ]
    db = Database(buffer_capacity=128)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=8)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(
        query_k, {"a1": rng.randrange(CARDS[0])},
        LinearFunction(["n1", "n2"], [1.0, 0.5]),
    )

    cursor = executor.open_search(query)
    head = cursor.next_batch(head_batch)

    # drifted append: ranking values pile into the top bins
    appended = [
        (
            rng.randrange(CARDS[0]),
            rng.randrange(CARDS[1]),
            rng.uniform(0.9, 1.0),
            rng.uniform(0.9, 1.0),
        )
        for _ in range(120)
    ]
    table.insert_rows(appended)
    assert cube.refresh_delta(table) == len(appended)
    assert DriftDetector(cube, threshold=1.5).check().drifted
    report = repartition_cube(cube, table, db.pool)
    assert report.swapped, "the rebuild must actually swap the grid"
    assert report.absorbed_delta == len(appended)

    # the pinned cursor finishes its pre-append snapshot exactly
    tail = drain(cursor)
    got = [(r.score, r.tid) for r in head + tail]
    assert got == [
        (r.score, r.tid) for r in brute_force_ranked(SCHEMA, rows, query)
    ]

    # a fresh cursor and a routed query see the absorbed delta exactly
    live = rows + appended
    fresh = [(r.score, r.tid) for r in drain(executor.open_search(query))]
    assert fresh == [
        (r.score, r.tid) for r in brute_force_ranked(SCHEMA, live, query)
    ]
    assert pairs(executor.execute(query)) == brute_force_topk(SCHEMA, live, query)
