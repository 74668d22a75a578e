"""The array grouping (``group_rows`` / ``encode_runs``) equals the
per-record grouping it replaced, byte for byte.

The reference below is that grouping written out: locate each row, append
its record to a dict of lists per store, sort the keys and ``struct.pack``
each record.  Every case compares keys, key order, counts and record
bytes; a run longer than a page, a single row and a splice of no
additions are among them.  The stores written from the runs must hold
plain Python ints in their counts and locators (an ``np.int64`` would
change the persisted pickles and slow every dict lookup), and a value
``struct.pack`` would have refused must raise :class:`CubeError` before
any page is written.
"""

import random
import struct

import numpy as np
import pytest

from repro.core import ChainStore, CubeError, PseudoBlockMap, RankingCube
from repro.core.cube import ScannedRows, encode_runs, group_rows, materialize
from repro.core.partition import EquiDepthPartitioner
from repro.relational import Database, Schema, ranking_attr, selection_attr
from repro.storage import BlockDevice, BufferPool, RecordCodec

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)
FAMILY = [(("a1",), 2), (("a2",), 1), (("a1", "a2"), 3)]


def reference_group(grid, family, rows):
    """The per-record grouping: dicts of record lists, packed record by
    record in sorted key order."""
    base, cuboids = {}, [{} for _ in family]
    pseudo = [PseudoBlockMap(grid, scale) for _dims, scale in family]
    sel_index = {dim: i for i, dim in enumerate(rows.selection_dims)}
    for tid, point, sel in zip(
        rows.tids.tolist(), rows.points.tolist(), rows.sel_rows.tolist()
    ):
        bid = grid.locate(point)
        base.setdefault((bid,), []).append((tid, *point))
        for groups, (dims, _scale), pmap in zip(cuboids, family, pseudo):
            key = (*(sel[sel_index[d]] for d in dims), pmap.pid_of_bid(bid))
            groups.setdefault(key, []).append((tid, bid))

    def packed(groups, fmt):
        return [
            (key, b"".join(struct.pack("<" + fmt, *r) for r in groups[key]),
             len(groups[key]))
            for key in sorted(groups)
        ]

    fmt = "q" + "d" * grid.num_dims
    return packed(base, fmt), [packed(groups, "qi") for groups in cuboids]


def as_bytes(runs):
    return [(key, bytes(data), count) for key, data, count in runs]


def scanned(tids, points, sels):
    return ScannedRows(
        ("a1", "a2"), np.array(tids, np.int64),
        np.array(points, np.float64).reshape(len(tids), 2),
        np.array(sels, np.int64).reshape(len(tids), 2),
    )


def random_rows(rng, count, distinct_points=None):
    """Rows with repeated keys and non-monotone tids."""
    tids = rng.sample(range(10 * count), count)
    palette = [(rng.random(), rng.random()) for _ in range(distinct_points or count)]
    points = [rng.choice(palette) for _ in range(count)]
    sels = [(rng.randrange(3), rng.randrange(4)) for _ in range(count)]
    return scanned(tids, points, sels)


def grid_over(rows, block_size=6):
    return EquiDepthPartitioner().build_grid(
        ("n1", "n2"), rows.points.T.tolist(), block_size
    )


def assert_equivalent(grid, rows, family=FAMILY):
    base, cuboids = group_rows(grid, family, rows)
    expected_base, expected_cuboids = reference_group(grid, family, rows)
    assert as_bytes(base) == expected_base
    cuboids = list(cuboids)
    assert len(cuboids) == len(expected_cuboids)
    for runs, expected in zip(cuboids, expected_cuboids):
        assert as_bytes(runs) == expected
    return base, cuboids


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_rows_with_repeated_keys(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng, 400, distinct_points=60)
        assert_equivalent(grid_over(rows), rows)

    def test_a_run_longer_than_a_page(self):
        # one cell and one block hold every row: 700 qi records span
        # three 4 KiB pages (340 to a page)
        count = 700
        rng = random.Random(3)
        tids = rng.sample(range(10 * count), count)
        rows = scanned(tids, [(0.5, 0.5)] * count, [(1, 2)] * count)
        grid = grid_over(random_rows(rng, 200))
        base, cuboids = assert_equivalent(grid, rows)
        assert [count for _key, _data, count in base] == [700]
        assert all(len(runs) == 1 for runs in cuboids)
        pool = BufferPool(BlockDevice(page_size=4096), capacity=64)
        store = ChainStore(pool, RecordCodec("qi"))
        store.write(cuboids[0])
        assert store.num_chain_pages == 3
        key = cuboids[0][0][0]
        assert store.get(key) == list(zip(tids, [grid.locate((0.5, 0.5))] * count))

    def test_a_single_row(self):
        rows = scanned([7], [(0.25, 0.75)], [(2, 3)])
        grid = grid_over(random_rows(random.Random(1), 50))
        base, cuboids = assert_equivalent(grid, rows)
        assert len(base) == 1 and all(len(runs) == 1 for runs in cuboids)

    def test_no_rows_encode_no_runs(self):
        rows = scanned([], [], [])
        grid = grid_over(random_rows(random.Random(2), 50))
        base, cuboids = assert_equivalent(grid, rows)
        assert base == [] and cuboids == [[], [], []]

    def test_a_splice_of_no_additions_rewrites_the_image(self):
        rows = random_rows(random.Random(4), 300)
        grid = grid_over(rows)
        images = []
        for splice in (False, True):
            device = BlockDevice(page_size=256)
            pool = BufferPool(device, capacity=16)
            old = ChainStore(pool, RecordCodec("qdd"))
            old.write(group_rows(grid, [], rows)[0])
            store = ChainStore(pool, RecordCodec("qdd"))
            if splice:
                store.splice(old.runs(), group_rows(grid, [], scanned([], [], []))[0])
            else:
                store.write(old.runs())
            pool.flush()
            images.append([device.read(p) for p in range(device.num_pages)])
        assert images[0] == images[1]


class TestPlainInts:
    def test_counts_and_locators_are_python_ints(self):
        rng = random.Random(5)
        db = Database()
        table = db.load_table(
            "R", SCHEMA,
            [(rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
             for _ in range(500)],
        )
        cube = RankingCube.build(table, block_size=10)
        stores = [cube.base_table._store] + [c._store for c in cube.cuboids.values()]
        for store in stores:
            assert store.counts
            for key, count in store.counts.items():
                assert type(key) is tuple and type(count) is int
                assert all(type(component) is int for component in key)
            for key, locator in store.directory.items():
                assert all(type(component) is int for component in key)
                assert type(locator) is int


class TestRangeChecks:
    """``struct.pack("<qi")`` raised on a value that does not fit; a NumPy
    field assignment wraps it, so the encoder checks first."""

    def encode(self, keys, tids, bids):
        return encode_runs(
            [np.array(keys)], [np.array(tids), np.array(bids)], "qi"
        )

    def test_in_range_values_encode(self):
        runs = self.encode([2**31 - 1], [2**63 - 1], [-(2**31)])
        assert as_bytes(runs) == [
            ((2**31 - 1,), struct.pack("<qi", 2**63 - 1, -(2**31)), 1)
        ]

    @pytest.mark.parametrize(
        "keys, tids, bids",
        [
            ([2**31], [0], [0]),  # a bid or pid key outside int32
            ([-(2**31) - 1], [0], [0]),
            ([0], [0], [2**31]),  # a bid field outside int32
            ([0], [np.uint64(2**63)], [0]),  # a tid outside int64
            ([0], [2**70], [0]),  # a tid no int64 array can hold
        ],
    )
    def test_out_of_range_values_raise(self, keys, tids, bids):
        with pytest.raises(CubeError, match="do not fit"):
            self.encode(keys, tids, bids)

    def test_an_out_of_range_row_writes_no_page(self):
        rows = random_rows(random.Random(6), 100)
        grid = grid_over(rows)
        bad_sel = rows.sel_rows.copy()
        bad_sel[17, 1] = 2**40
        bad_tids = rows.tids.astype(np.uint64)
        bad_tids[3] = 2**63
        device = BlockDevice(page_size=256)
        pool = BufferPool(device, capacity=16)
        for bad in (rows._replace(sel_rows=bad_sel), rows._replace(tids=bad_tids)):
            with pytest.raises(CubeError):
                materialize(pool, grid, SCHEMA, FAMILY, bad)
            assert device.num_pages == 0
