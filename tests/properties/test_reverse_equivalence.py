"""Property tests: reverse top-k equals the brute-force oracle.

For any data, target tuple, selections, and family of candidate ranking
functions, :func:`repro.core.reverse.reverse_topk` must return exactly
the function indices for which the target ranks in the top-k — the set a
naive full scan (:func:`repro.workloads.oracle.brute_force_reverse_topk`)
computes — with exact target scores, on the row executor, the vectorized
executor, and through a transient-fault device behind a deep retry
budget.  Hard faults must abort typed, never return a wrong set.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CubeError,
    RankingCube,
    RankingCubeExecutor,
    ReverseTopKQuery,
    reverse_topk,
    simplex_grid_family,
)
from repro.core.executor import QueryAbortedError
from repro.ranking import LinearFunction, LpDistance
from repro.relational import (
    Database,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
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
from repro.workloads.oracle import brute_force_reverse_topk, brute_force_topk
from repro.workloads.synthetic import SyntheticSpec, generate

pytestmark = pytest.mark.reverse

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

# mixed families: simplex weight vectors plus arbitrary convex functions
family_strategy = st.one_of(
    st.integers(1, 6).map(lambda s: simplex_grid_family(["n1", "n2"], s)),
    st.lists(st.one_of(linear_strategy, lp_strategy), min_size=1, max_size=5).map(
        tuple
    ),
)


def build(rows, block_size=5, make_db=None, use_vector=False):
    db = make_db() if make_db is not None else Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=block_size)
    return db, RankingCubeExecutor(cube, table, use_vector=use_vector)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    tid_seed=st.integers(0, 10**6),
    selections=selection_strategy,
    functions=family_strategy,
    k=st.integers(1, 8),
    block_size=st.sampled_from([2, 5, 20]),
)
def test_row_reverse_matches_oracle(rows, tid_seed, selections, functions, k, block_size):
    _db, executor = build(rows, block_size)
    query = ReverseTopKQuery(tid_seed % len(rows), k, selections, functions)
    result = reverse_topk(executor, query)
    assert result.qualifying == brute_force_reverse_topk(SCHEMA, rows, query)
    # exact target scores, one per candidate function, qualifying or not
    expected_scores = [
        fn.score([rows[query.tid][SCHEMA.position(d)] for d in fn.dims])
        for fn in functions
    ]
    assert result.target_scores == expected_scores


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    tid_seed=st.integers(0, 10**6),
    selections=selection_strategy,
    functions=family_strategy,
    k=st.integers(1, 8),
)
def test_vector_reverse_is_identical(rows, tid_seed, selections, functions, k):
    query = ReverseTopKQuery(tid_seed % len(rows), k, selections, functions)
    _rdb, row_ex = build(rows)
    _vdb, vec_ex = build(rows, use_vector=True)
    row_result = reverse_topk(row_ex, query)
    vec_result = reverse_topk(vec_ex, query)
    assert row_result.qualifying == brute_force_reverse_topk(SCHEMA, rows, query)
    assert vec_result.qualifying == row_result.qualifying
    assert vec_result.target_scores == row_result.target_scores
    assert vec_result.target_matches == row_result.target_matches


@pytest.mark.faults
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=rows_strategy,
    tid_seed=st.integers(0, 10**6),
    selections=selection_strategy,
    functions=family_strategy,
    k=st.integers(1, 8),
    seed=st.integers(0, 999),
)
def test_transient_faults_never_change_reverse(
    rows, tid_seed, selections, functions, k, seed
):
    def make_db():
        device = FaultyBlockDevice(
            BlockDevice(page_size=512), transient_fault_plan(seed)
        )
        return Database(
            buffer_capacity=64, device=device, retry_policy=RetryPolicy(max_attempts=6)
        )

    _db, executor = build(rows, make_db=make_db)
    query = ReverseTopKQuery(tid_seed % len(rows), k, selections, functions)
    result = reverse_topk(executor, query)
    assert result.qualifying == brute_force_reverse_topk(SCHEMA, rows, query)


@pytest.mark.faults
def test_hard_faults_abort_typed_never_wrong():
    """Unhealable read errors abort the whole query with a typed error."""
    rng = random.Random(31)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(120)
    ]
    injector = FaultInjector(31, [FaultRule(READ_ERROR, probability=1.0)])
    device = FaultyBlockDevice(BlockDevice(), injector)
    db = Database(device=device, retry_policy=RetryPolicy(max_attempts=1))
    table = db.load_table("R", SCHEMA, rows)
    injector.enabled = False  # loading/building must not trip the rules
    cube = RankingCube.build(table, block_size=8)
    executor = RankingCubeExecutor(cube, table)
    query = ReverseTopKQuery(7, 3, {}, simplex_grid_family(["n1", "n2"], 4))
    expected = brute_force_reverse_topk(SCHEMA, rows, query)
    db.cold_cache()
    injector.enabled = True
    with pytest.raises(QueryAbortedError) as excinfo:
        reverse_topk(executor, query)
    assert isinstance(excinfo.value.cause, StorageError)
    # healed device: the same query answers exactly
    injector.enabled = False
    assert reverse_topk(executor, query).qualifying == expected


def test_reverse_gate_on_qualifying_targets():
    """At bench size, on targets that do qualify: every qualifying set
    equals the oracle, row and vector engines agree bitwise, and the
    frontier pops at most half of the exhaustive blocks-times-functions
    candidates.

    The targets are each simplex weight's top-1 row within ``a1=0`` and
    ``a1=1`` (qualifying by construction) plus four random tids that
    qualify nowhere, so the gate cannot pass by comparing empty sets.
    """
    dataset = generate(SyntheticSpec(num_tuples=4_000, cardinality=6, seed=23))
    schema, rows = dataset.schema, dataset.rows
    db = Database(buffer_capacity=8192)
    table = dataset.load_into(db)
    cube = RankingCube.build(table, block_size=50)
    family = simplex_grid_family(["n1", "n2"], 4)
    targets = []
    for value in (0, 1):
        for function in family:
            [(_score, tid)] = brute_force_topk(
                schema, rows, TopKQuery(1, {"a1": value}, function)
            )
            if tid not in targets:
                targets.append(tid)
    rng = random.Random(30)
    targets += [rng.randrange(len(rows)) for _ in range(4)]
    # scope each competition to the target's own a1, so it always matches
    queries = [ReverseTopKQuery(t, 10, {"a1": rows[t][0]}, family) for t in targets]

    answers, work = {}, {}
    for use_vector in (False, True):
        executor = RankingCubeExecutor(cube, table, use_vector=use_vector)
        answers[use_vector], totals = [], [0, 0, 0]
        for query in queries:
            db.cold_cache()
            result = reverse_topk(executor, query)
            assert result.qualifying == brute_force_reverse_topk(schema, rows, query)
            answers[use_vector].append((result.qualifying, result.target_scores))
            totals[0] += result.blocks_accessed
            totals[1] += result.candidates_examined
            totals[2] += result.tuples_examined
        work[use_vector] = totals
    assert answers[False] == answers[True]
    assert work[False] == work[True]

    qualifying = [len(q) for q, _scores in answers[False]]
    assert qualifying == [1, 4, 4, 1, 4, 3, 1, 0, 0, 0, 0]
    blocks, candidates, tuples = work[False]
    assert (blocks, candidates, tuples) == (224, 153, 1219)
    exhaustive = len(queries) * len(family) * cube.grid.num_blocks
    assert candidates / exhaustive <= 0.5  # 0.034 here


def test_invalid_target_tid_raises():
    rows = [(0, 0, 0.5, 0.5), (1, 1, 0.2, 0.8)]
    _db, executor = build(rows)
    family = simplex_grid_family(["n1", "n2"], 2)
    with pytest.raises(CubeError):
        reverse_topk(executor, ReverseTopKQuery(len(rows), 1, {}, family))
    with pytest.raises(CubeError):
        ReverseTopKQuery(-1, 1, {}, family)
    with pytest.raises(CubeError):
        ReverseTopKQuery(0, 0, {}, family)
    with pytest.raises(CubeError):
        ReverseTopKQuery(0, 1, {}, ())


@pytest.mark.parametrize(
    "tid, k, selections",
    [
        (1.5, 1, {}),
        (True, 1, {}),
        (0, 2.5, {}),
        (0, True, {}),
        (0, "3", {}),
        (0, 1, {"a1": 0.5}),
        (0, 1, {"a1": "0"}),
    ],
)
def test_non_integer_fields_raise_typed(tid, k, selections):
    family = simplex_grid_family(["n1", "n2"], 2)
    with pytest.raises(CubeError, match="must be integers"):
        ReverseTopKQuery(tid, k, selections, family)


def test_numpy_integer_fields_accepted():
    np = pytest.importorskip("numpy")
    family = simplex_grid_family(["n1", "n2"], 2)
    query = ReverseTopKQuery(np.int64(0), np.int32(1), {"a1": np.int8(0)}, family)
    assert query == ReverseTopKQuery(0, 1, {"a1": 0}, family)


def test_non_matching_target_qualifies_nowhere():
    rows = [(0, 0, 0.1, 0.1), (1, 1, 0.9, 0.9), (2, 2, 0.5, 0.5)]
    _db, executor = build(rows)
    query = ReverseTopKQuery(1, 2, {"a1": 0}, simplex_grid_family(["n1", "n2"], 3))
    result = reverse_topk(executor, query)
    assert result.target_matches is False
    assert result.qualifying == []
    assert len(result.target_scores) == len(query.functions)
    assert brute_force_reverse_topk(SCHEMA, rows, query) == []
