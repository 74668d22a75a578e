"""Property tests: any-k enumeration equals the brute-force ranked oracle.

:meth:`RankingCubeExecutor.open_search` returns a resumable cursor that
must stream *every* matching tuple in certified ascending ``(score, tid)``
order — not just the first ``k``.  These suites check full-enumeration
equality against :func:`repro.workloads.oracle.brute_force_ranked`,
resumability under arbitrary batch-size schedules, equality through a
transient-fault device behind a deep retry budget, typed aborts (never
wrong answers) under hard faults, resumption after a fault heals, and
cursor survival across a delta append + compaction epoch bump.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CubeCompactor, RankingCube, RankingCubeExecutor
from repro.core.executor import QueryAbortedError
from repro.ranking import LinearFunction, LpDistance
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.storage import (
    READ_ERROR,
    BlockDevice,
    FaultInjector,
    FaultRule,
    FaultyBlockDevice,
    RetryPolicy,
    StorageError,
    transient_fault_plan,
)
from repro.workloads.oracle import brute_force_ranked

pytestmark = pytest.mark.anyk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, CARDS[0] - 1),
        st.integers(0, CARDS[1] - 1),
        st.floats(0, 1, allow_nan=False, width=32),
        st.floats(0, 1, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=100,
)

selection_strategy = st.dictionaries(
    st.sampled_from(["a1", "a2"]),
    st.integers(0, 2),
    max_size=2,
)

linear_strategy = st.tuples(
    st.floats(-2, 2, allow_nan=False).filter(lambda w: abs(w) > 1e-3),
    st.floats(-2, 2, allow_nan=False).filter(lambda w: abs(w) > 1e-3),
).map(lambda ws: LinearFunction(["n1", "n2"], list(ws)))

lp_strategy = st.tuples(
    st.floats(0, 1, allow_nan=False),
    st.floats(0, 1, allow_nan=False),
    st.sampled_from([1.0, 2.0]),
).map(lambda args: LpDistance(["n1", "n2"], [args[0], args[1]], p=args[2]))

function_strategy = st.one_of(linear_strategy, lp_strategy)


def pairs(rows):
    return [(r.score, r.tid) for r in rows]


def drain(cursor, batch=7):
    out = []
    while not cursor.exhausted:
        out.extend(cursor.next_batch(batch))
    return out


def oracle(rows, query):
    return pairs(brute_force_ranked(SCHEMA, rows, query))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    selections=selection_strategy,
    fn=function_strategy,
    k=st.integers(1, 10),
    block_size=st.sampled_from([2, 5, 20]),
)
def test_row_enumeration_matches_oracle(rows, selections, fn, k, block_size):
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=block_size)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(k, selections, fn)
    cursor = executor.open_search(query)
    got = pairs(drain(cursor))
    assert got == oracle(rows, query)
    # the cursor's embedded top-k result matches the one-shot executor
    assert pairs(cursor.result.rows) == pairs(executor.execute(query).rows)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    selections=selection_strategy,
    fn=linear_strategy,
    k=st.integers(1, 8),
    schedule=st.lists(st.integers(1, 9), min_size=1, max_size=30),
    seed=st.integers(0, 999),
)
def test_batch_schedule_never_changes_order(rows, selections, fn, k, schedule, seed):
    """Any interleaving of next_batch sizes yields the same stream."""
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=5)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(k, selections, fn)
    cursor = executor.open_search(query)
    got = []
    rng = random.Random(seed)
    while not cursor.exhausted:
        got.extend(cursor.next_batch(schedule[rng.randrange(len(schedule))]))
    assert pairs(got) == oracle(rows, query)
    # drained cursors keep returning empty batches, not errors
    assert cursor.next_batch(3) == []


@pytest.mark.faults
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    selections=selection_strategy,
    fn=function_strategy,
    k=st.integers(1, 8),
    seed=st.integers(0, 999),
)
def test_transient_faults_never_change_enumeration(rows, selections, fn, k, seed):
    device = FaultyBlockDevice(BlockDevice(page_size=512), transient_fault_plan(seed))
    db = Database(
        buffer_capacity=64, device=device, retry_policy=RetryPolicy(max_attempts=6)
    )
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=5)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(k, selections, fn)
    assert pairs(drain(executor.open_search(query))) == oracle(rows, query)


@pytest.mark.faults
def test_hard_faults_abort_typed_never_wrong():
    """Unhealable read errors surface as QueryAbortedError, not bad rows."""
    rng = random.Random(17)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(120)
    ]
    injector = FaultInjector(17, [FaultRule(READ_ERROR, probability=1.0)])
    device = FaultyBlockDevice(BlockDevice(), injector)
    db = Database(device=device, retry_policy=RetryPolicy(max_attempts=1))
    table = db.load_table("R", SCHEMA, rows)
    injector.enabled = False  # loading/building must not trip the rules
    cube = RankingCube.build(table, block_size=8)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(3, {}, LinearFunction(["n1", "n2"], [1.0, 1.0]))
    expected = oracle(rows, query)
    db.cold_cache()
    injector.enabled = True
    cursor = executor.open_search(query)
    with pytest.raises(QueryAbortedError) as excinfo:
        drain(cursor)
    assert isinstance(excinfo.value.cause, StorageError)
    # whatever partial rows the abort carries are a correct prefix
    assert pairs(excinfo.value.partial_rows) == expected[: len(excinfo.value.partial_rows)]
    # once the device heals, a fresh cursor enumerates exactly
    injector.enabled = False
    assert pairs(drain(executor.open_search(query))) == expected


def test_a_faulted_step_keeps_its_block_for_the_resumed_cursor():
    """A read fault mid-step leaves the popped block on the frontier.

    The block's tuples and its Lemma-1 neighbors are still unexamined, so
    the rows certified before the fault plus the rows a healed cursor
    returns are exactly the oracle's prefix: nothing skipped, nothing
    repeated.
    """
    rng = random.Random(43)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(300)
    ]
    injector = FaultInjector(43, [FaultRule(READ_ERROR, probability=1.0)])
    device = FaultyBlockDevice(BlockDevice(), injector)
    db = Database(device=device, retry_policy=RetryPolicy(max_attempts=1))
    table = db.load_table("R", SCHEMA, rows)
    injector.enabled = False  # loading/building must not trip the rules
    cube = RankingCube.build(table, block_size=8)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(5, {}, LinearFunction(["n1", "n2"], [1.0, 1.0]))
    db.cold_cache()

    cursor = executor.open_search(query)
    head = cursor.next_batch(5)
    db.cold_cache()  # the next page the search needs faces the device
    injector.enabled = True
    with pytest.raises(QueryAbortedError) as excinfo:
        cursor.next_batch(40)
    partial = excinfo.value.partial_rows
    assert len(partial) < 40
    injector.enabled = False
    tail = cursor.next_batch(20)
    got = pairs(head + partial + tail)
    assert got == oracle(rows, query)[: len(got)]
    assert len(tail) == 20


def test_cursor_survives_compaction_epoch_bump():
    """An open cursor is pinned to its snapshot across append + compact."""
    rng = random.Random(23)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(150)
    ]
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=8)
    executor = RankingCubeExecutor(cube, table)
    query = TopKQuery(4, {"a1": 1}, LinearFunction(["n1", "n2"], [1.0, 0.5]))

    cursor = executor.open_search(query)
    head = cursor.next_batch(5)

    # mutate the cube under the open cursor: absorb a delta, then compact
    # (ranking values mid-range, so every appended tuple is in-grid and
    # compaction actually merges it rather than leaving it residual)
    appended = [
        (1, rng.randrange(CARDS[1]), rng.uniform(0.3, 0.7), rng.uniform(0.3, 0.7))
        for _ in range(20)
    ]
    table.insert_rows(appended)
    assert cube.refresh_delta(table) == len(appended)
    report = CubeCompactor(cube, db.pool).compact_once()
    assert report.swapped, "compaction must actually bump the epoch"

    # the pinned cursor keeps enumerating the pre-append snapshot exactly
    tail = drain(cursor)
    assert pairs(head + tail) == oracle(rows, query)

    # a cursor opened *after* the bump sees the merged state exactly
    assert pairs(drain(executor.open_search(query))) == oracle(rows + appended, query)
