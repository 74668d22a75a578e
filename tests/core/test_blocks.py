"""Unit tests for the block grid."""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockGrid, GridError


def make_grid():
    # 3 bins on n1, 2 bins on n2
    return BlockGrid(
        ("n1", "n2"),
        ((0.0, 0.3, 0.6, 1.0), (0.0, 0.5, 1.0)),
    )


class TestShape:
    def test_bins_and_blocks(self):
        grid = make_grid()
        assert grid.bins_per_dim == (3, 2)
        assert grid.num_blocks == 6
        assert grid.num_dims == 2

    def test_dimension_count_mismatch(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.0, 1.0), (0.0, 1.0)))

    def test_too_few_boundaries(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.5,),))

    def test_non_increasing_boundaries(self):
        with pytest.raises(GridError):
            BlockGrid(("n1",), ((0.0, 0.5, 0.5, 1.0),))

    def test_empty_grid_rejected(self):
        with pytest.raises(GridError):
            BlockGrid((), ())


class TestBidMapping:
    def test_row_major_first_dim_fastest(self):
        grid = make_grid()
        assert grid.bid_of((0, 0)) == 0
        assert grid.bid_of((1, 0)) == 1
        assert grid.bid_of((2, 0)) == 2
        assert grid.bid_of((0, 1)) == 3

    def test_roundtrip_all(self):
        grid = make_grid()
        for bid in range(grid.num_blocks):
            assert grid.bid_of(grid.coords_of(bid)) == bid

    def test_out_of_range_coords(self):
        with pytest.raises(GridError):
            make_grid().bid_of((3, 0))

    def test_out_of_range_bid(self):
        with pytest.raises(GridError):
            make_grid().coords_of(6)

    def test_wrong_arity(self):
        with pytest.raises(GridError):
            make_grid().bid_of((1,))


class TestLocate:
    def test_interior_points(self):
        grid = make_grid()
        assert grid.locate((0.1, 0.2)) == grid.bid_of((0, 0))
        assert grid.locate((0.4, 0.7)) == grid.bid_of((1, 1))

    def test_boundary_goes_to_higher_bin(self):
        grid = make_grid()
        assert grid.locate((0.3, 0.0)) == grid.bid_of((1, 0))

    def test_last_edge_stays_in_last_bin(self):
        grid = make_grid()
        assert grid.locate((1.0, 1.0)) == grid.bid_of((2, 1))

    def test_outside_clamps(self):
        grid = make_grid()
        assert grid.locate((-5.0, 2.0)) == grid.bid_of((0, 1))
        assert grid.locate((99.0, -1.0)) == grid.bid_of((2, 0))


class TestGeometry:
    def test_box(self):
        grid = make_grid()
        lower, upper = grid.box(grid.bid_of((1, 1)))
        assert lower == (0.3, 0.5)
        assert upper == (0.6, 1.0)

    def test_full_box(self):
        assert make_grid().full_box() == ((0.0, 0.0), (1.0, 1.0))

    def test_sub_box(self):
        grid = make_grid()
        bid = grid.bid_of((2, 0))
        lower, upper = grid.sub_box(bid, (1,))  # only n2
        assert (lower, upper) == ((0.0,), (0.5,))

    def test_project(self):
        grid = make_grid()
        assert grid.project(("n2", "n1")) == (1, 0)

    def test_project_unknown_dim(self):
        with pytest.raises(GridError):
            make_grid().project(("zz",))


class TestNeighbors:
    def test_corner_has_two(self):
        grid = make_grid()
        neighbors = set(grid.neighbors(grid.bid_of((0, 0))))
        assert neighbors == {grid.bid_of((1, 0)), grid.bid_of((0, 1))}

    def test_interior_has_four(self):
        grid = make_grid()
        neighbors = set(grid.neighbors(grid.bid_of((1, 0))))
        assert neighbors == {
            grid.bid_of((0, 0)),
            grid.bid_of((2, 0)),
            grid.bid_of((1, 1)),
        }

    def test_symmetry(self):
        grid = make_grid()
        for bid in range(grid.num_blocks):
            for neighbor in grid.neighbors(bid):
                assert bid in set(grid.neighbors(neighbor))

    def test_one_dimensional_grid(self):
        grid = BlockGrid(("n1",), ((0.0, 0.25, 0.5, 1.0),))
        assert set(grid.neighbors(1)) == {0, 2}
        assert set(grid.neighbors(0)) == {1}

    def test_three_dimensional_grid(self):
        grid = BlockGrid(
            ("x", "y", "z"),
            ((0.0, 0.5, 1.0),) * 3,
        )
        center_neighbors = list(grid.neighbors(grid.bid_of((0, 0, 0))))
        assert len(center_neighbors) == 3


class TestLocateMany:
    def test_matches_scalar_locate(self):
        import random

        grid = make_grid()
        rng = random.Random(17)
        points = [(rng.uniform(-0.5, 1.5), rng.uniform(-0.5, 1.5)) for _ in range(500)]
        vectorized = grid.locate_many(points)
        assert vectorized.dtype == np.int64
        assert vectorized.tolist() == [grid.locate(p) for p in points]

    def test_boundary_semantics_match(self):
        grid = make_grid()
        points = [(0.3, 0.0), (0.6, 0.5), (1.0, 1.0), (0.0, 0.0)]
        assert grid.locate_many(points).tolist() == [grid.locate(p) for p in points]

    def test_shape_validation(self):
        grid = make_grid()
        with pytest.raises(GridError):
            grid.locate_many([(0.5,)])  # wrong arity


# ----------------------------------------------------------------------
# compiled geometry: tables vs. reference arithmetic
# ----------------------------------------------------------------------
def ref_bins(boundaries):
    return [len(edges) - 1 for edges in boundaries]


def ref_num_blocks(boundaries):
    total = 1
    for bins in ref_bins(boundaries):
        total *= bins
    return total


def ref_coords_of(boundaries, bid):
    coords = []
    for bins in ref_bins(boundaries):
        coords.append(bid % bins)
        bid //= bins
    return tuple(coords)


def ref_bid_of(boundaries, coords):
    bid, stride = 0, 1
    for coord, bins in zip(coords, ref_bins(boundaries)):
        bid += coord * stride
        stride *= bins
    return bid


def ref_neighbors(boundaries, bid):
    coords = list(ref_coords_of(boundaries, bid))
    found = []
    for d, bins in enumerate(ref_bins(boundaries)):
        for step in (-1, 1):
            if 0 <= coords[d] + step < bins:
                moved = list(coords)
                moved[d] += step
                found.append(ref_bid_of(boundaries, moved))
    return tuple(found)


def ref_box(boundaries, bid):
    coords = ref_coords_of(boundaries, bid)
    return (
        tuple(edges[c] for c, edges in zip(coords, boundaries)),
        tuple(edges[c + 1] for c, edges in zip(coords, boundaries)),
    )


def ref_sub_box(boundaries, bid, positions):
    lower, upper = ref_box(boundaries, bid)
    return tuple(lower[p] for p in positions), tuple(upper[p] for p in positions)


@st.composite
def grid_boundaries(draw, max_dims=4, max_bins=4):
    """Strictly increasing boundary tuples for a grid with R in 1..4."""
    boundaries = []
    for _ in range(draw(st.integers(1, max_dims))):
        steps = draw(
            st.lists(st.floats(0.01, 10.0), min_size=1, max_size=max_bins)
        )
        edge = draw(st.floats(-50.0, 50.0))
        edges = [edge]
        for step in steps:
            edge += step
            edges.append(edge)
        boundaries.append(tuple(edges))
    return tuple(boundaries)


def grid_over(boundaries):
    return BlockGrid(tuple(f"n{i}" for i in range(len(boundaries))), boundaries)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(boundaries=grid_boundaries(), data=st.data())
def test_geometry_equals_reference_arithmetic(boundaries, data):
    grid = grid_over(boundaries)
    num_dims = len(boundaries)
    positions = tuple(
        data.draw(st.lists(st.integers(0, num_dims - 1), min_size=1, max_size=num_dims))
    )
    assert grid.bins_per_dim == tuple(ref_bins(boundaries))
    assert grid.num_blocks == ref_num_blocks(boundaries)
    for _cold_then_warm in range(2):
        for bid in range(grid.num_blocks):
            coords = ref_coords_of(boundaries, bid)
            assert grid.coords_of(bid) == coords
            assert grid.bid_of(coords) == bid
            assert tuple(grid.neighbors(bid)) == ref_neighbors(boundaries, bid)
            assert grid.box(bid) == ref_box(boundaries, bid)
            assert grid.sub_box(bid, positions) == ref_sub_box(
                boundaries, bid, positions
            )
            # a list of positions answers like the tuple
            assert grid.sub_box(bid, list(positions)) == ref_sub_box(
                boundaries, bid, positions
            )


class TestCompiledGeometryIsNotTheValue:
    @staticmethod
    def warm(grid):
        for bid in range(grid.num_blocks):
            grid.coords_of(bid)
            grid.neighbors(bid)
            grid.box(bid)
            grid.sub_box(bid, (0,))
            grid.sub_box(bid, (1, 0))
        return grid

    @pytest.mark.parametrize("bad_bid", [-1, -6, 6, 7, 10**9])
    def test_bad_bids_raise_cold_and_warm(self, bad_bid):
        for grid in (make_grid(), self.warm(make_grid())):
            for call in (
                grid.coords_of,
                grid.neighbors,
                grid.box,
                lambda bid: grid.sub_box(bid, (0,)),
            ):
                with pytest.raises(GridError):
                    call(bad_bid)

    def test_warm_grid_equals_and_hashes_like_a_fresh_one(self):
        warm, fresh = self.warm(make_grid()), make_grid()
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        assert {warm: 1}[fresh] == 1

    def test_warm_grid_pickles_to_the_same_bytes(self):
        warm, fresh = self.warm(make_grid()), make_grid()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(warm, protocol) == pickle.dumps(fresh, protocol)

    def test_unpickled_grid_is_compiled_and_cold(self):
        restored = pickle.loads(pickle.dumps(self.warm(make_grid())))
        assert restored == make_grid()
        assert restored.num_blocks == 6
        assert restored.neighbors(0) == (1, 3)
        with pytest.raises(GridError):
            restored.coords_of(6)

    def test_tables_hold_valid_bids_only(self):
        grid = self.warm(make_grid())
        for bad_bid in (-1, 6):
            with pytest.raises(GridError):
                grid.neighbors(bad_bid)
        for table in (grid._coords, grid._neighbors, grid._boxes):
            assert sorted(table) == list(range(grid.num_blocks))
        for table in grid._sub_boxes.values():
            assert sorted(table) == list(range(grid.num_blocks))

    def test_concurrent_first_touch_returns_identical_tuples(self):
        grid = BlockGrid(
            ("x", "y", "z"),
            (tuple(float(i) for i in range(9)),) * 3,
        )
        expected = geometry_of(grid_over(grid.boundaries))
        results = run_in_threads(8, lambda: geometry_of(grid))
        assert results == [expected] * 8


def geometry_of(grid):
    return [
        (
            grid.coords_of(bid),
            grid.neighbors(bid),
            grid.box(bid),
            grid.sub_box(bid, (2, 0)),
        )
        for bid in range(grid.num_blocks)
    ]


def run_in_threads(count, work):
    """Run ``work`` on ``count`` threads released together; their results."""
    barrier = threading.Barrier(count)
    results = [None] * count

    def body(index):
        barrier.wait(timeout=30)
        results[index] = work()

    threads = [threading.Thread(target=body, args=(i,)) for i in range(count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results
