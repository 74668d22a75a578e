"""Every ranking function's box bound is a proven lower bound.

The progressive search is exact only if ``f(bid)`` is at most the score
of every tuple in ``bid`` (paper §3.2.2).  Linear and Lp functions bound
a box by its closed-form minimum; every other family by the largest of
the affine minorants at the descent point and the box's corners,
``f(p) + g.(corner - p)`` less a rounding margin.  This suite checks the bound property on 10,000 random boxes per
function class against the very floats ``score`` returns, the paths that
could feed the frontier a non-bound (a negated convex function, SQL's
unproven expressions, a non-finite score), and the batch checks that keep
a bad row out of the table and the WAL.
"""

import ast
import itertools
import math
import random
from pathlib import Path

import pytest

import repro.ranking
from repro.core import RankingCube, RankingCubeExecutor
from repro.ingest import ShardedStreamIngestor, StreamIngestor
from repro.ingest.wal import WriteAheadLog
from repro.persist import Workspace
from repro.ranking import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    RankingFunctionError,
    descending,
)
from repro.relational import (
    Database,
    Schema,
    TableError,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from repro.shard import build_sharded
from repro.sqlmini import SqlError, compile_topk
from repro.workloads.oracle import brute_force_topk

BOXES = 10_000
DIMS = ("n1", "n2", "n3")


def kinked(c):
    """``|x - y| - c*(x + y)``: convex for any ``c``, no gradient on the
    diagonal, where coordinate descent stalls; 0 is a subgradient of the
    kink's ``|.|`` term."""
    return ConvexFunction(
        ["n1", "n2"],
        lambda x, y: abs(x - y) - c * (x + y),
        subgradient=lambda x, y: (
            ((x > y) - (x < y)) - c,
            ((y > x) - (y < x)) - c,
        ),
        name=f"kinked({c:g})",
    )


# ---------------------------------------------------------------------------
# one random function per class
# ---------------------------------------------------------------------------
def _dims(rng):
    return DIMS[: rng.randint(1, 3)]


def _linear(rng):
    dims = _dims(rng)
    return LinearFunction(
        dims, [rng.uniform(-3, 3) for _ in dims], offset=rng.uniform(-2, 2)
    )


def _lp(p):
    def build(rng):
        dims = _dims(rng)
        return LpDistance(
            dims,
            [rng.uniform(-1, 2) for _ in dims],
            p=p,
            weights=[rng.uniform(0, 3) for _ in dims],
        )

    return build


def _quadratic(rng):
    dims = _dims(rng)
    n = len(dims)
    # A A' is PSD; adding a skew-symmetric part keeps x'Qx and checks
    # that the gradient uses Q + Q', not 2Q
    a = [[rng.uniform(-1.5, 1.5) for _ in range(n)] for _ in range(n)]
    skew = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]
    matrix = [
        [
            sum(a[i][k] * a[j][k] for k in range(n)) + skew[i][j] - skew[j][i]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return QuadraticForm(
        dims,
        matrix,
        center=[rng.uniform(-1, 2) for _ in dims],
        linear=[rng.uniform(-2, 2) for _ in dims],
    )


def _smooth_convex(rng):
    a, b, t = rng.uniform(-2, 2), rng.uniform(0, 2), rng.uniform(-1, 2)
    return ConvexFunction(
        ["n1", "n2"],
        lambda x, y: math.exp(a * x) + b * (y - t) ** 2 + x * 0.5,
        subgradient=lambda x, y: (a * math.exp(a * x) + 0.5, 2 * b * (y - t)),
        name="smooth",
    )


def _kinked_convex(rng):
    return kinked(rng.uniform(0, 0.95))


FAMILIES = {
    "linear": _linear,
    "lp1": _lp(1.0),
    "lp2": _lp(2.0),
    "lp3": _lp(3.0),
    "quadratic": _quadratic,
    "convex-smooth": _smooth_convex,
    "convex-kinked": _kinked_convex,
}


def _random_box(rng, arity):
    lower, upper = [], []
    for _ in range(arity):
        lo = rng.uniform(-1.5, 1.5)
        width = rng.choice([0.0, 1e-9, rng.uniform(0, 0.1), rng.uniform(0, 1.5)])
        lower.append(lo)
        upper.append(lo + width)
    return lower, upper


def _points_in(rng, fn, lower, upper):
    yield from itertools.product(*zip(lower, upper))  # the corners
    yield fn.argmin_over_box(lower, upper)
    for _ in range(3):
        yield [rng.uniform(lo, hi) for lo, hi in zip(lower, upper)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_min_over_box_lower_bounds_every_point_of_the_box(family):
    rng = random.Random(f"certified-{family}")
    build = FAMILIES[family]
    fn = None
    for box in range(BOXES):
        if box % 10 == 0:
            fn = build(rng)
        lower, upper = _random_box(rng, fn.arity)
        bound = fn.min_over_box(lower, upper)
        for point in _points_in(rng, fn, lower, upper):
            assert fn.score(point) >= bound, (fn, lower, upper, point, bound)


# ---------------------------------------------------------------------------
# regressions: paths that fed the frontier something other than a bound
# ---------------------------------------------------------------------------
def test_the_kinked_box_is_bounded_by_its_true_minimum():
    # coordinate descent from the centre stalls on the diagonal at -0.1;
    # the true minimum is -0.2, at (1, 1)
    fn = kinked(0.1)
    assert fn.score([1.0, 1.0]) == pytest.approx(-0.2)
    assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) <= fn.score([1.0, 1.0])


def test_descending_refuses_a_distance():
    for p in (1.0, 2.0):
        with pytest.raises(RankingFunctionError, match="linear"):
            descending(LpDistance(["n1", "n2"], [0.3, 0.6], p=p))


def test_sql_desc_on_a_distance_raises():
    schema = Schema.of([ranking_attr("n1"), ranking_attr("n2")])
    with pytest.raises(SqlError, match="DESC"):
        compile_topk(
            "SELECT TOP 10 FROM R ORDER BY (n1 - 0.3)**2 + (n2 - 0.6)**2 DESC",
            schema,
        )
    with pytest.raises(SqlError, match="neither affine nor an Lp"):
        compile_topk("SELECT TOP 10 FROM R ORDER BY n1*n2", schema)


SCHEMA = Schema.of(
    [selection_attr("a1", 4), ranking_attr("n1"), ranking_attr("n2")]
)


def _rows(n, seed):
    rng = random.Random(seed)
    return [(rng.randrange(4), rng.random(), rng.random()) for _ in range(n)]


@pytest.fixture(scope="module")
def cube_env():
    rows = _rows(1500, seed=7)
    db = Database()
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=30)
    return rows, RankingCubeExecutor(cube, table)


def _answers(result):
    return [(row.score, row.tid) for row in result.rows]


def test_a_kinked_convex_query_equals_brute_force(cube_env):
    """Coordinate descent stalls on the kink, so the descent value over-
    states a block's minimum; answered with it as the bound, this sweep
    returned a wrong top-k on 4 of its 120 queries.  With the descent
    point's minorant alone as the bound the sweep read 1,369 blocks; the
    largest of the minorants at the descent point and the box's corners
    reads 1,102."""
    rows, executor = cube_env
    cells = [{}] + [{"a1": a} for a in range(4)]
    slopes = (0.1, 0.3, 0.5, 0.8, -0.1, -0.3, -0.5, -0.8)
    blocks = 0
    for c, k, cell in itertools.product(slopes, (1, 5, 10), cells):
        query = TopKQuery(k, cell, kinked(c))
        result = executor.execute(query)
        assert _answers(result) == brute_force_topk(SCHEMA, rows, query), (
            c, k, cell,
        )
        blocks += result.blocks_accessed
    assert blocks == 1102


def test_a_desc_linear_query_equals_brute_force(cube_env):
    rows, executor = cube_env
    query = TopKQuery(10, {"a1": 2}, descending(LinearFunction(["n1", "n2"], [1.0, 0.5])))
    assert _answers(executor.execute(query)) == brute_force_topk(SCHEMA, rows, query)


def test_a_non_finite_score_aborts_the_query_with_a_typed_error(cube_env):
    _, executor = cube_env
    poisoned = ConvexFunction(
        ["n1", "n2"],
        lambda x, y: math.nan if x > 0.5 else x + y,
        subgradient=lambda x, y: (1.0, 1.0),
    )
    with pytest.raises(RankingFunctionError, match="nan"):
        poisoned.score([0.9, 0.1])
    with pytest.raises(RankingFunctionError):
        executor.execute(TopKQuery(2000, {}, poisoned))
    steep = ConvexFunction(["n1"], lambda x: x, subgradient=lambda x: (math.inf,))
    with pytest.raises(RankingFunctionError, match="finite"):
        steep.min_over_box([0.0], [1.0])


# ---------------------------------------------------------------------------
# a batch is checked whole before the table or the WAL changes
# ---------------------------------------------------------------------------
BAD_ROWS = [
    (1, 0.5),  # too short
    (1, 0.5, 0.5, 0.5),  # too wide
    (1, math.nan, 0.5),
    (1, 0.5, math.inf),
    (1, -math.inf, 0.5),
    (1, "0.5", 0.5),
]


@pytest.mark.parametrize("bad", BAD_ROWS, ids=repr)
def test_insert_rows_rejects_a_batch_before_any_write(bad):
    db = Database()
    table = db.load_table("R", SCHEMA, _rows(50, seed=1))
    before = table.value_count("a1", 1)
    with pytest.raises(TableError):
        table.insert_rows([(1, 0.25, 0.75), bad])
    assert table.num_rows == 50
    assert table.value_count("a1", 1) == before
    with pytest.raises(TableError):
        table.fetch_by_tid(50)
    table.insert_rows([(1, 0.25, 0.75)])
    assert table.fetch_by_tid(50) == (1, 0.25, 0.75)
    assert table.value_count("a1", 1) == before + 1


@pytest.mark.parametrize("bad", BAD_ROWS, ids=repr)
def test_stream_append_rejects_a_batch_before_the_wal(tmp_path, bad):
    db = Database()
    table = db.load_table("R", SCHEMA, _rows(50, seed=2))
    workspace = Workspace(db=db, cubes={"R": RankingCube.build(table, block_size=8)})
    snapshot, wal = Path(tmp_path) / "r.snap", Path(tmp_path) / "r.wal"
    workspace.save(snapshot)
    with StreamIngestor(workspace, "R", wal) as ingestor:
        ingestor.append([(0, 0.1, 0.2)])
        size = wal.stat().st_size
        with pytest.raises(TableError):
            ingestor.append([(2, 0.3, 0.4), bad])
        assert wal.stat().st_size == size
        assert table.num_rows == 51
    recovered = StreamIngestor.recover(snapshot, "R", wal)
    try:
        assert recovered.table.num_rows == 51
        assert recovered.table.fetch_by_tid(50) == (0, 0.1, 0.2)
    finally:
        recovered.close()


@pytest.mark.parametrize("bad", BAD_ROWS[:3], ids=repr)
def test_sharded_append_rows_changes_no_shard_on_a_bad_row(bad):
    # round-robin appends: the good row lands on shard 0, the bad on shard 1
    cube = build_sharded(SCHEMA, _rows(60, seed=3), num_shards=2, block_size=8)
    with pytest.raises(TableError):
        cube.append_rows([(0, 0.1, 0.2), bad])
    assert cube.num_rows == 60
    assert sum(shard.table.num_rows for shard in cube.shards) == 60


@pytest.mark.parametrize("bad", BAD_ROWS[:3], ids=repr)
def test_sharded_append_rejects_a_batch_before_the_wal(tmp_path, bad):
    cube = build_sharded(SCHEMA, _rows(60, seed=3), num_shards=2, block_size=8)
    wal = Path(tmp_path) / "s.wal"
    with ShardedStreamIngestor(cube, wal) as ingestor:
        ingestor.append([(0, 0.1, 0.2)])
        with pytest.raises(TableError):
            ingestor.append([(2, 0.3, 0.4), bad])
        assert cube.num_rows == 61
        assert sum(shard.table.num_rows for shard in cube.shards) == 61
    records, _valid = WriteAheadLog(wal).scan()
    assert [len(record.rows) for record in records] == [1]


# ---------------------------------------------------------------------------
# structure: the approximate paths are gone
# ---------------------------------------------------------------------------
def test_no_approximate_minimum_is_exported():
    for name in ("NegatedFunction", "minimize_convex_over_box"):
        assert not hasattr(repro.ranking, name), name
        assert name not in repro.ranking.__all__
    assert not hasattr(repro.ranking.RankingFunction, "global_minimizer")


def test_levelset_does_not_import_the_descent():
    source = Path(repro.ranking.__file__).with_name("levelset.py").read_text()
    imported = {
        alias.name if isinstance(node, ast.Import) else node.module
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not any("boxmin" in (module or "") for module in imported), imported
