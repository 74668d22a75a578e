"""Unit tests for pseudo blocks and scale factors."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BlockGrid, GridError, PseudoBlockMap, scale_factor


def make_grid(bins=(4, 4)):
    boundaries = tuple(
        tuple(i / b for i in range(b + 1)) for b in bins
    )
    return BlockGrid(tuple(f"n{i}" for i in range(len(bins))), boundaries)


class TestScaleFactor:
    def test_paper_example(self):
        # cardinalities 2 and 2, R=2 -> sf = sqrt(4) = 2 (Example 3)
        assert scale_factor([2, 2], 2) == 2

    def test_unit_cardinalities(self):
        assert scale_factor([1, 1], 2) == 1
        assert scale_factor([], 2) == 1

    def test_ceiling_behavior(self):
        # prod 10, R=2 -> sqrt(10) ~ 3.16 -> 4
        assert scale_factor([10], 2) == 4

    def test_exact_root_not_over_ceiled(self):
        assert scale_factor([9], 2) == 3
        assert scale_factor([8], 3) == 2

    def test_higher_ranking_dims_shrink_sf(self):
        assert scale_factor([100], 2) == 10
        assert scale_factor([100], 4) == 4

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            scale_factor([0], 2)
        with pytest.raises(ValueError):
            scale_factor([2], 0)


class TestPseudoBlockMap:
    def test_paper_example_four_pseudo_blocks(self):
        pseudo = PseudoBlockMap(make_grid((4, 4)), sf=2)
        assert pseudo.pbins_per_dim == (2, 2)
        assert pseudo.num_pseudo_blocks == 4

    def test_pid_of_bid_quadrants(self):
        grid = make_grid((4, 4))
        pseudo = PseudoBlockMap(grid, sf=2)
        # paper layout: b1..b4 bottom row -> bids 0..3
        assert pseudo.pid_of_bid(grid.bid_of((0, 0))) == 0
        assert pseudo.pid_of_bid(grid.bid_of((1, 1))) == 0
        assert pseudo.pid_of_bid(grid.bid_of((2, 0))) == 1
        assert pseudo.pid_of_bid(grid.bid_of((0, 2))) == 2
        assert pseudo.pid_of_bid(grid.bid_of((3, 3))) == 3

    def test_bids_of_pid_inverse(self):
        grid = make_grid((4, 4))
        pseudo = PseudoBlockMap(grid, sf=2)
        for pid in range(pseudo.num_pseudo_blocks):
            for bid in pseudo.bids_of_pid(pid):
                assert pseudo.pid_of_bid(bid) == pid

    def test_bids_partition_the_grid(self):
        grid = make_grid((4, 4))
        pseudo = PseudoBlockMap(grid, sf=2)
        all_bids = sorted(
            bid
            for pid in range(pseudo.num_pseudo_blocks)
            for bid in pseudo.bids_of_pid(pid)
        )
        assert all_bids == list(range(grid.num_blocks))

    def test_sf_one_identity(self):
        grid = make_grid((3, 3))
        pseudo = PseudoBlockMap(grid, sf=1)
        assert pseudo.num_pseudo_blocks == grid.num_blocks
        for bid in range(grid.num_blocks):
            assert pseudo.pid_of_bid(bid) == bid

    def test_sf_larger_than_grid_collapses_to_one(self):
        grid = make_grid((3, 3))
        pseudo = PseudoBlockMap(grid, sf=10)
        assert pseudo.num_pseudo_blocks == 1
        assert sorted(pseudo.bids_of_pid(0)) == list(range(9))

    def test_uneven_division(self):
        grid = make_grid((5, 3))
        pseudo = PseudoBlockMap(grid, sf=2)
        assert pseudo.pbins_per_dim == (3, 2)
        # edge pseudo blocks are smaller
        last_pid = pseudo.num_pseudo_blocks - 1
        assert len(pseudo.bids_of_pid(last_pid)) == 1 * 1

    def test_invalid_sf(self):
        with pytest.raises(GridError):
            PseudoBlockMap(make_grid((4, 4)), sf=0)

    def test_invalid_pid(self):
        pseudo = PseudoBlockMap(make_grid((4, 4)), sf=2)
        with pytest.raises(GridError):
            pseudo.pcoords_of_pid(4)

    def test_for_cuboid_uses_scale_factor(self):
        grid = make_grid((4, 4))
        pseudo = PseudoBlockMap.for_cuboid(grid, [2, 2])
        assert pseudo.sf == 2


# ----------------------------------------------------------------------
# compiled bid -> pid table vs. reference arithmetic
# ----------------------------------------------------------------------
def ref_pid_of_bid(bins, sf, bid):
    pid, stride = 0, 1
    for count in bins:
        pid += ((bid % count) // sf) * stride
        stride *= -(-count // sf)
        bid //= count
    return pid


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    bins=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    sf=st.integers(1, 6),
)
def test_pid_tables_equal_reference_arithmetic(bins, sf):
    grid = make_grid(tuple(bins))
    pseudo = PseudoBlockMap(grid, sf)
    pbins = tuple(-(-count // sf) for count in bins)
    assert pseudo.pbins_per_dim == pbins
    members: dict[int, list[int]] = {}
    for bid in range(grid.num_blocks):
        members.setdefault(ref_pid_of_bid(bins, sf, bid), []).append(bid)
    assert pseudo.num_pseudo_blocks == len(members)
    for _cold_then_warm in range(2):
        for bid in range(grid.num_blocks):
            assert pseudo.pid_of_bid(bid) == ref_pid_of_bid(bins, sf, bid)
        for pid in range(pseudo.num_pseudo_blocks):
            assert pseudo.bids_of_pid(pid) == members[pid]
    # the coarse grid: pid p is its block p, and face-adjacent pseudo
    # blocks are exactly those holding face-adjacent bids
    coarse = pseudo.coarse
    assert coarse.bins_per_dim == pbins
    for pid in range(pseudo.num_pseudo_blocks):
        assert coarse.coords_of(pid) == pseudo.pcoords_of_pid(pid)
        adjacent = {
            pseudo.pid_of_bid(neighbor)
            for bid in members[pid]
            for neighbor in grid.neighbors(bid)
        } - {pid}
        assert set(coarse.neighbors(pid)) == adjacent


class TestCompiledTableIsNotTheValue:
    @staticmethod
    def warm(pseudo):
        for bid in range(pseudo.grid.num_blocks):
            pseudo.pid_of_bid(bid)
        return pseudo

    @pytest.mark.parametrize("bad_bid", [-1, 16, 10**9])
    def test_bad_bids_raise_cold_and_warm(self, bad_bid):
        for pseudo in (
            PseudoBlockMap(make_grid(), 2),
            self.warm(PseudoBlockMap(make_grid(), 2)),
        ):
            with pytest.raises(GridError):
                pseudo.pid_of_bid(bad_bid)

    def test_warm_map_is_the_same_value_and_pickle(self):
        warm = self.warm(PseudoBlockMap(make_grid(), 2))
        warm.coarse.neighbors(0)
        fresh = PseudoBlockMap(make_grid(), 2)
        assert warm == fresh
        assert hash(warm) == hash(fresh)
        assert repr(warm) == repr(fresh)
        assert pickle.dumps(warm) == pickle.dumps(fresh)
        restored = pickle.loads(pickle.dumps(warm))
        assert restored == fresh
        assert restored.pid_of_bid(15) == 3
