"""Unit tests for the multi-dimensional composite index."""

import random

import pytest

from repro.index import BPlusTreeError, CompositeIndex
from repro.storage import BlockDevice, BufferPool


def make_rows(count=400, seed=11, cards=(3, 4)):
    rng = random.Random(seed)
    rows = []
    for tid in range(count):
        sel = tuple(rng.randrange(c) for c in cards)
        rank = (rng.random(), rng.random())
        rows.append((sel, rank, tid))
    return rows


def make_index(rows):
    device = BlockDevice()
    pool = BufferPool(device, capacity=512)
    index = CompositeIndex(pool, ["a1", "a2"], ["n1", "n2"])
    index.build(rows)
    return device, pool, index


class TestFullPrefixRange:
    def test_equality_only(self):
        rows = make_rows()
        _d, _p, index = make_index(rows)
        got = sorted(tid for tid, _r in index.range_query([1, 2]))
        expected = sorted(tid for sel, _r, tid in rows if sel == (1, 2))
        assert got == expected

    def test_equality_plus_ranking_box(self):
        rows = make_rows()
        _d, _p, index = make_index(rows)
        got = sorted(
            tid for tid, _r in index.range_query([0, 0], [0.2, 0.1], [0.7, 0.9])
        )
        expected = sorted(
            tid
            for sel, (n1, n2), tid in rows
            if sel == (0, 0) and 0.2 <= n1 <= 0.7 and 0.1 <= n2 <= 0.9
        )
        assert got == expected

    def test_ranking_values_returned(self):
        rows = make_rows(count=50)
        _d, _p, index = make_index(rows)
        by_tid = {tid: rank for _s, rank, tid in rows}
        for tid, rank in index.range_query([1, 1]):
            assert rank == by_tid[tid]

    def test_empty_result(self):
        rows = [((0, 0), (0.5, 0.5), 0)]
        _d, _p, index = make_index(rows)
        assert list(index.range_query([2, 3])) == []


class TestPartialPrefix:
    def test_leading_dim_only(self):
        rows = make_rows()
        _d, _p, index = make_index(rows)
        got = sorted(tid for tid, _r in index.prefix_range_query({"a1": 2}))
        expected = sorted(tid for sel, _r, tid in rows if sel[0] == 2)
        assert got == expected

    def test_non_leading_dim_scans_and_filters(self):
        rows = make_rows()
        _d, _p, index = make_index(rows)
        got = sorted(tid for tid, _r in index.prefix_range_query({"a2": 3}))
        expected = sorted(tid for sel, _r, tid in rows if sel[1] == 3)
        assert got == expected

    def test_non_leading_costs_more_io(self):
        rows = make_rows(count=1000)
        device, pool, index = make_index(rows)
        pool.clear()
        device.reset_stats()
        list(index.prefix_range_query({"a1": 1}))
        leading = device.stats.reads
        pool.clear()
        device.reset_stats()
        list(index.prefix_range_query({"a2": 1}))
        non_leading = device.stats.reads
        assert non_leading > leading

    def test_no_conditions_scans_everything(self):
        rows = make_rows(count=100)
        _d, _p, index = make_index(rows)
        assert len(list(index.prefix_range_query({}))) == 100

    def test_ranking_bound_filters_without_full_prefix(self):
        rows = make_rows()
        _d, _p, index = make_index(rows)
        got = sorted(
            tid
            for tid, _r in index.prefix_range_query(
                {"a2": 1}, [0.0, 0.0], [0.3, 0.3]
            )
        )
        expected = sorted(
            tid
            for sel, (n1, n2), tid in rows
            if sel[1] == 1 and n1 <= 0.3 and n2 <= 0.3
        )
        assert got == expected


class TestMetadata:
    def test_len(self):
        rows = make_rows(count=123)
        _d, _p, index = make_index(rows)
        assert len(index) == 123

    def test_size_positive(self):
        rows = make_rows(count=123)
        _d, _p, index = make_index(rows)
        assert index.size_in_bytes > 0


class TestBuildInput:
    def test_nan_ranking_value_rejected(self):
        rows = make_rows(count=40)
        rows[17] = (rows[17][0], (float("nan"), 0.5), 17)
        with pytest.raises(BPlusTreeError, match="NaN"):
            make_index(rows)

    def test_integral_ranking_values_are_stored_as_floats(self):
        """One component type per key position: an int ranking value (or a
        float selection value) in one row must not change the key format."""
        rows = [((1.0, 2), (1, 0.25), 0), ((1, 2), (0.5, 1), 1)]
        _d, _p, index = make_index(rows)
        assert list(index.range_query([1, 2])) == [(1, (0.5, 1.0)), (0, (1.0, 0.25))]
