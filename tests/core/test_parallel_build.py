"""Units for the build's grouping: ``shard_ranges`` (the tid-range split
the sharded tier routes by) and ``group_rows`` (the one routine that
groups rows into store records)."""

import random

import numpy as np
import pytest

from repro.core.cube import ScannedRows, group_rows, resolve_scales
from repro.core.partition import EquiDepthPartitioner
from repro.relational import Schema, ranking_attr, selection_attr
from repro.shard.map import shard_ranges
from repro.storage import RecordCodec

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


class TestShardRanges:
    def test_exact_cover_in_order(self):
        ranges = shard_ranges(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_even_split(self):
        assert shard_ranges(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_more_shards_than_items(self):
        ranges = shard_ranges(2, 5)
        assert ranges == [(0, 1), (1, 2)]

    def test_empty(self):
        assert shard_ranges(0, 4) == []

    def test_single_shard(self):
        assert shard_ranges(7, 1) == [(0, 7)]

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shard_ranges(-1, 2)
        with pytest.raises(ValueError):
            shard_ranges(5, 0)

    def test_ranges_always_cover_and_never_overlap(self):
        for count in (1, 7, 100, 1001):
            for shards in (1, 2, 3, 8, 200):
                ranges = shard_ranges(count, shards)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == count
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start


def _grid(points, block_size=6):
    return EquiDepthPartitioner().build_grid(
        ("n1", "n2"), list(zip(*points)), block_size
    )


class TestGroupRows:
    def test_per_key_record_order_is_scan_order(self):
        """Each key's records keep the order of ``rows``, whatever the
        tids: a store's page image depends only on that order."""
        rng = random.Random(3)
        count = 40
        tids = rng.sample(range(10 * count), count)
        points = [(rng.random(), rng.random()) for _ in range(count)]
        sel_rows = [(rng.randrange(3), rng.randrange(4)) for _ in range(count)]
        rows = ScannedRows(
            ("a1", "a2"), np.array(tids), np.array(points), np.array(sel_rows)
        )
        grid = _grid(points)
        family = resolve_scales(grid, SCHEMA, [(("a1",), None), (("a1", "a2"), None)])
        base, cuboids = group_rows(grid, family, rows)
        position = {tid: i for i, tid in enumerate(tids)}
        for runs, codec in [(base, RecordCodec("qdd"))] + [
            (runs, RecordCodec("qi")) for runs in cuboids
        ]:
            assert sum(n for _key, _data, n in runs) == count
            for _key, data, size in runs:
                order = [position[r[0]] for r in codec.unpack(data, size)]
                assert order == sorted(order)
