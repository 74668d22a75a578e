"""Per-bin bound tables are ``min_over_box``, bit for bit.

A separable ranking family reports ``box_min_terms``: an offset and one
term per (dimension, bin), whose fold ``offset + sum(...)`` the
progressive search uses as a block's lower bound instead of calling
``min_over_box``.  The frontier's order — and with it every golden
trace — depends on those bounds' exact bits, so this suite compares
them bitwise (``-0.0`` and ``0.0`` differ) over every block of random
grids, including functions that rank a subset of the grid's dimensions
in a different order (Figure 6's r < R).  Non-separable families report
``None`` and keep ``min_over_box`` (the affine minorant).
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BlockGrid, RankingCube, RankingCubeExecutor
from repro.core.executor import ProgressiveSearch
from repro.ranking import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    descending,
)
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def table_bound(fn, grid, positions, bid):
    offset, terms = fn.box_min_terms([grid.boundaries[p] for p in positions])
    coords = grid.coords_of(bid)
    return offset + sum(row[coords[p]] for p, row in zip(positions, terms))


def assert_table_is_min_over_box(fn, grid):
    positions = grid.project(fn.dims)
    offset, terms = fn.box_min_terms([grid.boundaries[p] for p in positions])
    assert [len(row) for row in terms] == [grid.bins_per_dim[p] for p in positions]
    for bid in range(grid.num_blocks):
        expected = fn.min_over_box(*grid.sub_box(bid, positions))
        got = table_bound(fn, grid, positions, bid)
        assert bits(got) == bits(expected), (fn, bid, got, expected)


edges = st.lists(
    st.floats(-0.5, 1.5, allow_nan=False), min_size=2, max_size=7, unique=True
).map(sorted)
grids = st.lists(edges, min_size=1, max_size=3).map(
    lambda bounds: BlockGrid(
        tuple(f"g{i}" for i in range(len(bounds))), tuple(map(tuple, bounds))
    )
)
weights = st.one_of(st.floats(-3, 3, allow_nan=False), st.sampled_from([0.0, -0.0]))
nonneg = st.one_of(st.floats(0, 3, allow_nan=False), st.sampled_from([0.0, -0.0]))
targets = st.floats(-1, 2, allow_nan=False)  # inside and outside the grid


@st.composite
def ranked_dims(draw, grid):
    """A non-empty subset of the grid's dimensions, in a drawn order."""
    dims = draw(st.permutations(grid.dims))
    return dims[:draw(st.integers(1, len(dims)))]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linear_table_folds_to_min_over_box(data):
    grid = data.draw(grids)
    dims = data.draw(ranked_dims(grid))
    fn = LinearFunction(
        dims,
        data.draw(st.lists(weights, min_size=len(dims), max_size=len(dims))),
        offset=data.draw(st.one_of(st.floats(-2, 2), st.sampled_from([0.0, -0.0]))),
    )
    assert_table_is_min_over_box(fn, grid)
    assert_table_is_min_over_box(descending(fn), grid)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([1.0, 2.0, 3.5]))
def test_lp_table_folds_to_min_over_box(data, p):
    grid = data.draw(grids)
    dims = data.draw(ranked_dims(grid))
    size = len(dims)
    fn = LpDistance(
        dims,
        data.draw(st.lists(targets, min_size=size, max_size=size)),
        p=p,
        weights=data.draw(st.lists(nonneg, min_size=size, max_size=size)),
    )
    assert_table_is_min_over_box(fn, grid)


def test_signed_zero_weights_and_offsets():
    grid = BlockGrid(("a", "b"), ((-1.0, 0.0, 1.0), (-2.0, 0.5, 2.0)))
    for w in (0.0, -0.0):
        assert_table_is_min_over_box(LinearFunction(["a", "b"], [w, -1.5]), grid)
        assert_table_is_min_over_box(
            descending(LinearFunction(["b"], [w], offset=-0.0)), grid
        )


def test_non_separable_families_report_none():
    quadratic = QuadraticForm(["a", "b"], [[2.0, 0.5], [0.5, 1.0]], center=[0.3, 0.6])
    convex = ConvexFunction(
        ["a", "b"],
        lambda a, b: (a - 0.2) ** 2 + abs(b - 0.7),
        subgradient=lambda a, b: (2 * (a - 0.2), (b > 0.7) - (b < 0.7)),
    )
    edges_ab = [(0.0, 0.5, 1.0), (0.0, 0.25, 1.0)]
    for fn in (quadratic, convex):
        assert fn.box_min_terms(edges_ab[: fn.arity]) is None


# ---------------------------------------------------------------------------
# the search's own fold, table and fallback alike
# ---------------------------------------------------------------------------
SCHEMA = Schema.of(
    [selection_attr("a1", 3)] + [ranking_attr(f"n{i}") for i in (1, 2, 3)]
)


def small_executor(scale=None):
    rng = random.Random(4)
    rows = [(rng.randrange(3), rng.random(), rng.random(), rng.random())
            for _ in range(300)]
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=8, pseudo_scale_override=scale)
    return RankingCubeExecutor(cube, table)


FUNCTIONS = [
    LinearFunction(["n1", "n2", "n3"], [0.7, -1.2, -0.0], offset=0.25),
    LinearFunction(["n3", "n1"], [1.0, 2.0]),  # r < R, reordered
    descending(LinearFunction(["n2", "n1"], [1.0, -0.5])),
    LpDistance(["n1", "n2"], [0.3, 1.4], p=2.0),
    LpDistance(["n2"], [-0.2], p=1.0),
    LpDistance(["n1", "n2", "n3"], [0.5, 0.5, 0.9], p=3.5),
    QuadraticForm(["n1", "n2"], [[1.0, 0.2], [0.2, 1.0]], center=[0.4, 0.4]),
    ConvexFunction(
        ["n1", "n3"],
        lambda a, b: abs(a - 0.6) + (b - 0.1) ** 2,
        subgradient=lambda a, b: ((a > 0.6) - (a < 0.6), 2 * (b - 0.1)),
    ),
]


def test_search_bounds_equal_min_over_box_on_every_block():
    executor = small_executor()
    for fn in FUNCTIONS:
        search = ProgressiveSearch(executor, TopKQuery(5, {"a1": 1}, fn))
        grid, positions = search.snapshot.grid, search._positions
        for bid in range(grid.num_blocks):
            expected = fn.min_over_box(*grid.sub_box(bid, positions))
            assert bits(search._block_bound(bid)) == bits(expected), (fn, bid)
        separable = fn.box_min_terms([grid.boundaries[p] for p in positions])
        assert bool(search._bound_table) == (separable is not None)


@pytest.mark.parametrize("scale", [None, 1, 3, 4])
def test_pseudo_keys_are_their_bids_least_bound(scale):
    """A pseudo block's frontier key is the least bound of its bids, bit
    for bit: folded from each pseudo bin's least per-bin term for a
    separable function (float addition is monotone), the least
    ``_block_bound`` otherwise.  The start entry's key is the start
    block's own bound, so ``explain``'s ``start_bound`` is the bid's."""
    executor = small_executor(scale)
    for fn in FUNCTIONS:
        search = ProgressiveSearch(executor, TopKQuery(5, {"a1": 1}, fn))
        pseudo = search.covering[0].pseudo
        for pid in range(pseudo.num_pseudo_blocks):
            least = min(search._block_bound(b) for b in pseudo.bids_of_pid(pid))
            assert bits(search._pseudo_bound(pid)) == bits(least), (fn, pid)
        if search._bound_table:  # separable: the start key is folded
            assert bits(search.best_unseen) == bits(
                search._block_bound(search.start_bid)
            ), fn
