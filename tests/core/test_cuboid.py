"""Unit tests for the base block table and ranking cuboids."""

import random

import numpy as np
import pytest

from repro.core import (
    BaseBlockTable,
    BlockGrid,
    CuboidError,
    RankingCuboid,
    scale_factor,
)
from repro.core.cube import ScannedRows, group_rows
from repro.storage import BlockDevice, BufferPool


def make_grid(bins=(4, 4)):
    boundaries = tuple(tuple(i / b for i in range(b + 1)) for b in bins)
    return BlockGrid(("n1", "n2"), boundaries)


def make_pool():
    device = BlockDevice()
    return device, BufferPool(device, capacity=256)


def random_points(count=200, seed=3):
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(count)]


def scanned(dims, sels, points):
    """``ScannedRows`` over ``(sels, points)`` (tid = position)."""
    count = len(points)
    return ScannedRows(
        tuple(dims), np.arange(count), np.array(points, np.float64),
        np.array(sels, np.int64).reshape(count, len(dims)),
    )


def build_table(pool, grid, points):
    """The base block table over ``points`` (tid = position)."""
    base_runs, _cuboids = group_rows(grid, [], scanned((), [], points))
    return BaseBlockTable.from_runs(pool, grid, base_runs)


def build_cuboid(pool, grid, dims, cards, sels, points):
    """The cuboid on ``dims`` over ``(sels, points)`` (tid = position)."""
    family = [(tuple(dims), scale_factor(cards, grid.num_dims))]
    _base, (runs,) = group_rows(grid, family, scanned(dims, sels, points))
    return RankingCuboid.from_runs(pool, dims, cards, grid, runs)


class TestBaseBlockTable:
    def test_build_assigns_bids_by_grid(self):
        _d, pool = make_pool()
        grid = make_grid()
        points = random_points()
        table = build_table(pool, grid, points)
        seen = 0
        for bid in range(grid.num_blocks):
            for tid, _values in table.get_base_block(bid):
                assert grid.locate(points[tid]) == bid
                seen += 1
        assert seen == len(points)

    def test_get_base_block_returns_block_members(self):
        _d, pool = make_pool()
        grid = make_grid()
        points = random_points()
        table = build_table(pool, grid, points)
        bids = [grid.locate(point) for point in points]
        target_bid = bids[0]
        members = table.get_base_block(target_bid)
        expected_tids = sorted(t for t, b in enumerate(bids) if b == target_bid)
        assert sorted(t for t, _v in members) == expected_tids
        by_tid = {t: v for t, v in members}
        for tid in expected_tids:
            assert by_tid[tid] == pytest.approx(points[tid])

    def test_empty_block_returns_nothing(self):
        _d, pool = make_pool()
        grid = make_grid()
        table = build_table(pool, grid, [(0.01, 0.01)])
        far_bid = grid.bid_of((3, 3))
        assert table.get_base_block(far_bid) == []

    def test_access_count(self):
        _d, pool = make_pool()
        grid = make_grid()
        table = build_table(pool, grid, [(0.01, 0.01)])
        table.get_base_block(0)
        table.get_base_block(0)
        assert table.access_count == 2

    def test_num_tuples(self):
        _d, pool = make_pool()
        table = build_table(pool, make_grid(), random_points(50))
        assert table.num_tuples == 50


class TestRankingCuboid:
    def make_cuboid(self, members=None, dims=("a1",), cards=(2,)):
        """A cuboid over ``members`` ``(sel values, point)``; returns it
        and its ``(sel values, tid, bid)`` rows."""
        _d, pool = make_pool()
        grid = make_grid()
        if members is None:
            rng = random.Random(9)
            members = []
            for _tid in range(100):
                point = (rng.random(), rng.random())
                members.append((tuple(rng.randrange(c) for c in cards), point))
        sels = [sel for sel, _point in members]
        points = [point for _sel, point in members]
        rows = [
            (sel, tid, grid.locate(point))
            for tid, (sel, point) in enumerate(members)
        ]
        return build_cuboid(pool, grid, dims, cards, sels, points), rows

    def test_get_pseudo_block_partitions_entries(self):
        cuboid, rows = self.make_cuboid()
        seen = set()
        for value in (0, 1):
            for pid in range(cuboid.pseudo.num_pseudo_blocks):
                for tid, bid in cuboid.get_pseudo_block((value,), pid):
                    assert cuboid.pseudo.pid_of_bid(bid) == pid
                    seen.add(tid)
        assert seen == {tid for _s, tid, _b in rows}

    def test_entries_match_cell_semantics(self):
        cuboid, rows = self.make_cuboid()
        pid = 0
        got = sorted(cuboid.get_pseudo_block((1,), pid))
        expected = sorted(
            (tid, bid)
            for sel, tid, bid in rows
            if sel == (1,) and cuboid.pseudo.pid_of_bid(bid) == pid
        )
        assert got == expected

    def test_absent_cell_empty(self):
        cuboid, _rows = self.make_cuboid(
            members=[((0,), (0.01, 0.01))], dims=("a1",), cards=(2,)
        )
        assert cuboid.get_pseudo_block((1,), 0) == []

    def test_scale_factor_from_cardinalities(self):
        cuboid, _rows = self.make_cuboid(dims=("a1", "a2"), cards=(2, 2))
        assert cuboid.scale_factor == 2

    def test_wrong_arity_rejected(self):
        cuboid, _rows = self.make_cuboid()
        with pytest.raises(CuboidError):
            cuboid.get_pseudo_block((0, 1), 0)

    def test_empty_dims_rejected(self):
        _d, pool = make_pool()
        with pytest.raises(CuboidError):
            RankingCuboid(pool, (), (), make_grid())

    def test_misaligned_dims_cards_rejected(self):
        _d, pool = make_pool()
        with pytest.raises(CuboidError):
            RankingCuboid(pool, ("a1",), (2, 3), make_grid())

    def test_name_and_repr(self):
        cuboid, _rows = self.make_cuboid(dims=("a1",), cards=(2,))
        assert cuboid.name == "a1|n1n2"
        assert "sf=" in repr(cuboid)

    def test_num_entries(self):
        cuboid, rows = self.make_cuboid()
        assert cuboid.num_entries == len(rows)
