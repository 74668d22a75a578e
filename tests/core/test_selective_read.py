"""The evaluate step's selective read: ``get_base_block(bid, tids)``.

Given the retrieve step's qualifying tids, the base block table decodes
only those records — but it must read exactly the pages, through exactly
the buffer-pool calls, that a full read does, and return exactly the
full read filtered by ``tids`` (same records, same order).
"""

import random

import numpy as np
import pytest

from repro.core import BaseBlockTable, BlockGrid
from repro.core.cube import ScannedRows, group_rows
from repro.storage import BlockDevice, BufferPool, RecordCodec


def build_table(seed=11, count=400, page_size=256):
    """~25 tuples a block over 10-record pages: most blocks span pages."""
    rng = random.Random(seed)
    grid = BlockGrid(
        ("n1", "n2"), tuple(tuple(i / 4 for i in range(5)) for _ in range(2))
    )
    points = [(rng.random(), rng.random()) for _ in range(count)]
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=256)
    tids = rng.sample(range(10 * count), count)
    rows = ScannedRows(
        (), np.array(tids), np.array(points), np.empty((count, 0), np.int64)
    )
    table = BaseBlockTable.from_runs(pool, grid, group_rows(grid, [], rows)[0])
    pool.flush()
    return device, pool, table


def io_counts(device, pool, read):
    """``read()``'s result and the device reads / pool hits and misses it cost."""
    before = (device.stats.reads, pool.stats.hits, pool.stats.misses)
    result = read()
    after = (device.stats.reads, pool.stats.hits, pool.stats.misses)
    return result, tuple(b - a for a, b in zip(before, after))


def tid_sets(block_tids, rng):
    absent = {max(block_tids, default=0) + 1 + i for i in range(3)}
    some = set(rng.sample(block_tids, len(block_tids) // 2))
    return [None, set(), set(block_tids), some | absent, absent]


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_selective_read_is_the_full_read_filtered(seed):
    device, pool, table = build_table(seed)
    rng = random.Random(seed)
    for bid in range(table.grid.num_blocks):
        pool.clear()
        full, full_cold = io_counts(device, pool, lambda: table.get_base_block(bid))
        _again, full_warm = io_counts(
            device, pool, lambda: table.get_base_block(bid)
        )
        for tids in tid_sets([tid for tid, _v in full], rng):
            pool.clear()
            got, cold = io_counts(
                device, pool, lambda: table.get_base_block(bid, tids)
            )
            _got, warm = io_counts(
                device, pool, lambda: table.get_base_block(bid, tids)
            )
            expected = full if tids is None else [r for r in full if r[0] in tids]
            assert got == expected
            assert (cold, warm) == (full_cold, full_warm)


def test_blocks_span_pages():
    _device, _pool, table = build_table()
    capacity = RecordCodec("qdd").capacity(256)
    sizes = [len(table.get_base_block(bid)) for bid in range(table.grid.num_blocks)]
    assert max(sizes) > capacity  # the spanning path is exercised


def test_codec_unpack_with_keys_filters_in_stored_order():
    codec = RecordCodec("qdd")
    records = [(tid, tid / 2, -tid / 3) for tid in (5, 3, 9, 3, 1)]
    data = b"\0" * 7 + codec.pack(records)
    assert codec.unpack(data, 5, 7, {3, 1, 42}) == [
        records[1], records[3], records[4]
    ]
    assert codec.unpack(data, 5, 7, set()) == []
    assert codec.unpack(data, 2, 7, {9}) == []
    assert codec.unpack(data, 5, 7, None) == records
