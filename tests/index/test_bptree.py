"""Unit tests for the paged B+-tree."""

import pickle
import random
import struct

import pytest

from repro.index import BPlusTree, BPlusTreeError
from repro.storage import (
    BlockDevice,
    BufferPool,
    BytesPage,
    PageCorruptionError,
    PageFormatError,
    RecordCodec,
    RecordPage,
)

NAN = float("nan")
INF = float("inf")


def reachable_pages(tree):
    """Page ids a walk from the root reaches, by decoding the node images."""
    entry = struct.Struct("<" + tree._fmt + "q")
    seen, todo = set(), [tree._root_id]
    while todo:
        page_id = todo.pop()
        seen.add(page_id)
        data = tree.pool.get(page_id)
        page_type, count, _next = struct.unpack_from("<BxHI", data)
        if page_type == 4:  # internal: the trailing int64 is a child id
            todo.extend(entry.unpack_from(data, 8 + i * entry.size)[-1] for i in range(count))
    return seen


def make_tree(page_size=136, pool_capacity=256):
    # node capacity follows the page size: (page_size - 8) // entry bytes,
    # so 136 bytes hold 8 one-int-key entries and 72 bytes hold 4
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=pool_capacity)
    return device, pool, BPlusTree(pool)


class TestInsertGet:
    def test_empty_tree(self):
        _d, _p, tree = make_tree()
        assert len(tree) == 0
        assert tree.get((1,)) is None
        assert (1,) not in tree

    def test_single_insert(self):
        _d, _p, tree = make_tree()
        tree.insert((5,), 50)
        assert tree.get((5,)) == 50
        assert (5,) in tree
        assert len(tree) == 1

    def test_get_default(self):
        _d, _p, tree = make_tree()
        assert tree.get((9,), default=-1) == -1

    def test_duplicate_insert_rejected(self):
        _d, _p, tree = make_tree()
        tree.insert((5,), 50)
        with pytest.raises(BPlusTreeError):
            tree.insert((5,), 51)

    def test_many_inserts_random_order(self):
        _d, _p, tree = make_tree(page_size=88)
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert((key,), key * 10)
        assert len(tree) == 500
        for key in range(500):
            assert tree.get((key,)) == key * 10

    def test_height_grows_logarithmically(self):
        _d, _p, tree = make_tree(page_size=72)
        for key in range(200):
            tree.insert((key,), key)
        assert 3 <= tree.height <= 8

    def test_composite_keys(self):
        _d, _p, tree = make_tree()
        tree.insert((1, 0.5, 7), 1)
        tree.insert((1, 0.25, 9), 2)
        tree.insert((0, 0.9, 3), 3)
        assert tree.get((1, 0.25, 9)) == 2
        keys = [key for key, _v in tree.items()]
        assert keys == sorted(keys)

    def test_low_fanout_rejected(self):
        # 40 bytes hold two one-int-key entries; a node needs three
        _d, _p, tree = make_tree(page_size=40)
        with pytest.raises(BPlusTreeError):
            tree.insert((1,), 1)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([((1,), 1)])
        assert len(tree) == 0 and tree.get((1,)) is None

    def test_nan_key_rejected(self):
        """NaN compares false with everything, so it would pass every order
        check and then hide its neighbours from the binary search."""
        _d, _p, tree = make_tree(page_size=72)
        keys = [0.1, 0.3, 0.05, 0.7, 0.2, 0.9, 0.4, 0.6]
        for key in keys[:4]:
            tree.insert((key,), int(key * 100))
        for _ in range(2):
            with pytest.raises(BPlusTreeError, match="NaN"):
                tree.insert((NAN,), 0)
        for key in keys[4:]:
            tree.insert((key,), int(key * 100))
        assert len(tree) == len(keys)
        for key in keys:
            assert tree.get((key,)) == int(key * 100)

    def test_key_of_another_shape_rejected(self):
        _d, _p, tree = make_tree()
        tree.insert((1, 0.5), 1)
        with pytest.raises(BPlusTreeError, match="components"):
            tree.insert((1,), 2)
        with pytest.raises(BPlusTreeError, match="components"):
            tree.insert((1, 0.5, 3), 2)
        with pytest.raises(BPlusTreeError, match="format"):
            tree.insert((0.5, 0.5), 2)  # a float where the tree stores ints
        with pytest.raises(BPlusTreeError, match="format"):
            tree.insert((2**63, 0.5), 2)
        tree.insert((2, 1), 3)  # an int where the tree stores floats is exact
        assert list(tree.items()) == [((1, 0.5), 1), ((2, 1.0), 3)]

    def test_pickled_tree_answers_identically(self):
        _d, _p, tree = make_tree(page_size=88)
        for key in random.Random(11).sample(range(400), 120):
            tree.insert((key, key / 7), key)
        empty = pickle.loads(pickle.dumps(BPlusTree(tree.pool)))
        assert len(empty) == 0 and empty.get((1, 0.5)) is None
        restored = pickle.loads(pickle.dumps(tree))
        assert list(restored.items()) == list(tree.items())
        assert restored.get((35, 5.0)) == tree.get((35, 5.0))
        restored.insert((1000, 0.0), 7)  # the restored tree is writable too
        assert restored.get((1000, 0.0)) == 7 and (1000, 0.0) not in tree


class TestRangeScan:
    def test_full_scan_sorted(self):
        _d, _p, tree = make_tree(page_size=72)
        keys = random.Random(5).sample(range(1000), 300)
        for key in keys:
            tree.insert((key,), key)
        scanned = [key[0] for key, _v in tree.items()]
        assert scanned == sorted(keys)

    def test_half_open_range(self):
        _d, _p, tree = make_tree(page_size=72)
        for key in range(100):
            tree.insert((key,), key)
        got = [key[0] for key, _v in tree.range_scan((10,), (20,))]
        assert got == list(range(10, 20))

    def test_closed_range(self):
        _d, _p, tree = make_tree(page_size=72)
        for key in range(100):
            tree.insert((key,), key)
        got = [key[0] for key, _v in tree.range_scan((10,), (20,), include_hi=True)]
        assert got == list(range(10, 21))

    def test_open_ended_scan(self):
        _d, _p, tree = make_tree(page_size=72)
        for key in range(50):
            tree.insert((key,), key)
        got = [key[0] for key, _v in tree.range_scan((45,), None)]
        assert got == [45, 46, 47, 48, 49]

    def test_range_with_absent_bounds(self):
        _d, _p, tree = make_tree(page_size=72)
        for key in range(0, 100, 2):  # evens only
            tree.insert((key,), key)
        got = [key[0] for key, _v in tree.range_scan((11,), (21,))]
        assert got == [12, 14, 16, 18, 20]

    def test_empty_range(self):
        _d, _p, tree = make_tree()
        tree.insert((5,), 5)
        assert list(tree.range_scan((10,), (20,))) == []

    def test_mixed_type_keys_scan(self):
        _d, _p, tree = make_tree()
        tree.insert((1, 0.5), 1)
        tree.insert((1, float("-inf")), 0)
        tree.insert((1, float("inf")), 2)
        got = [v for _k, v in tree.range_scan((1, float("-inf")), (1, float("inf")), include_hi=True)]
        assert got == [0, 1, 2]

    def test_infinite_bounds_probe_int_components(self):
        """The composite index's open prefix bounds: +-inf in positions the
        tree stores as int64 compare, they are never packed."""
        _d, _p, tree = make_tree(page_size=168)  # 5 entries of (q, d, q) -> q
        keys = [(a, r / 4, tid) for tid, (a, r) in enumerate(
            (a, r) for a in range(6) for r in range(5))]
        tree.bulk_load([(key, key[-1]) for key in keys])
        assert tree.height >= 3
        got = [k for k, _v in tree.range_scan((2, -INF, -INF), (3, INF, INF), include_hi=True)]
        assert got == [k for k in keys if k[0] in (2, 3)]
        got = [k for k, _v in tree.range_scan((-INF, -INF, -INF), (0, 0.5, INF), include_hi=True)]
        assert got == [k for k in keys if k[0] == 0 and k[1] <= 0.5]
        assert list(tree.range_scan((INF, -INF, -INF), None)) == []
        assert tree.get((2, -INF, 0)) is None


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        _d, _p, tree = make_tree(page_size=104)
        pairs = [((k,), k * 2) for k in range(250)]
        tree.bulk_load(pairs)
        assert len(tree) == 250
        for k in range(250):
            assert tree.get((k,)) == k * 2
        assert [key for key, _v in tree.items()] == [(k,) for k in range(250)]

    def test_bulk_load_single_pair(self):
        _d, _p, tree = make_tree()
        tree.bulk_load([((1,), 10)])
        assert tree.get((1,)) == 10

    def test_bulk_load_empty(self):
        _d, _p, tree = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_unsorted_rejected(self):
        _d, _p, tree = make_tree()
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([((2,), 1), ((1,), 2)])

    def test_bulk_load_duplicates_rejected(self):
        _d, _p, tree = make_tree()
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([((1,), 1), ((1,), 2)])

    def test_bulk_load_nonempty_tree_rejected(self):
        _d, _p, tree = make_tree()
        tree.insert((0,), 0)
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([((1,), 1)])

    def test_insert_after_bulk_load(self):
        _d, _p, tree = make_tree(page_size=88)
        tree.bulk_load([((k,), k) for k in range(0, 100, 2)])
        for k in range(1, 100, 2):
            tree.insert((k,), k)
        assert [key[0] for key, _v in tree.items()] == list(range(100))

    def test_insert_after_bulk_load_splits_both_levels(self):
        _d, _p, tree = make_tree(page_size=72)  # 4 entries a node
        tree.bulk_load([((k,), k) for k in range(0, 64, 4)])  # 4 full leaves, full root
        assert (tree.height, tree.num_nodes) == (2, 5)
        tree.insert((1,), 1)  # splits a full leaf, which splits the full root
        assert (tree.height, tree.num_nodes) == (3, 8)
        for k in range(64):
            if k % 4 > 1:
                tree.insert((k,), k)
        expected = [k for k in range(64) if k % 4 != 1 or k == 1]
        assert [key[0] for key, _v in tree.items()] == expected
        assert all(tree.get((k,)) == k for k in expected)
        assert tree.get((5,)) is None

    def test_bulk_load_nan_rejected(self):
        _d, _p, tree = make_tree()
        pairs = [((0.1,), 1), ((NAN,), 2), ((0.05,), 3), ((0.2,), 4)]
        with pytest.raises(BPlusTreeError, match="NaN"):
            tree.bulk_load(pairs)
        assert len(tree) == 0 and tree.get((0.05,)) is None

    @pytest.mark.parametrize("keys, height", [(3, 1), (10, 2), (40, 3)])
    def test_bulk_load_leaks_no_page(self, keys, height):
        """The root page the constructor wrote is part of the loaded tree."""
        device, pool, tree = make_tree(page_size=72)
        tree.bulk_load([((k,), k) for k in range(keys)])
        assert tree.height == height
        assert device.num_pages == tree.num_nodes == len(reachable_pages(tree))

    def test_range_scan_after_bulk_load(self):
        _d, _p, tree = make_tree(page_size=104)
        tree.bulk_load([((k,), k) for k in range(1000)])
        got = [key[0] for key, _v in tree.range_scan((500,), (510,))]
        assert got == list(range(500, 510))


class TestIOBehaviour:
    def test_lookup_io_is_bounded_by_height(self):
        device, pool, tree = make_tree(page_size=136, pool_capacity=512)
        tree.bulk_load([((k,), k) for k in range(2000)])
        pool.clear()
        device.reset_stats()
        assert tree.get((1234,)) == 1234
        assert device.stats.reads == tree.height == 4

    def test_node_pages_on_device(self):
        device, _pool, tree = make_tree(page_size=136)
        tree.bulk_load([((k,), k) for k in range(500)])
        assert tree.num_nodes <= device.num_pages
        assert tree.size_in_bytes == tree.num_nodes * device.page_size


class TestDamagedPages:
    """A node image the tree cannot trust raises a typed storage error."""

    def loaded(self):
        device, pool, tree = make_tree(page_size=72)
        tree.bulk_load([((k,), k) for k in range(40)])
        pool.flush()
        return device, pool, tree

    def rewrite(self, device, pool, page_id, header=None, child=None):
        """Damage a node the way a bad write would: checksum and all."""
        data = bytearray(device.read(page_id))
        if header is not None:
            struct.pack_into("<BxHI", data, 0, *header)
        if child is not None:
            struct.pack_into("<q", data, 8 + 8, child)  # entry 0's child id
        device.write(page_id, bytes(data))
        pool.clear()

    def test_unknown_type_byte(self):
        device, pool, tree = self.loaded()
        self.rewrite(device, pool, tree._root_id, header=(77, 2, 0xFFFFFFFF))
        with pytest.raises(PageCorruptionError) as excinfo:
            tree.get((5,))
        assert excinfo.value.page_id == tree._root_id

    def test_entry_count_above_capacity(self):
        device, pool, tree = self.loaded()
        self.rewrite(device, pool, tree._root_id, header=(4, 5, 0xFFFFFFFF))
        with pytest.raises(PageCorruptionError) as excinfo:
            tree.get((5,))
        assert excinfo.value.page_id == tree._root_id
        with pytest.raises(PageCorruptionError):
            tree.insert((100,), 1)

    def test_internal_node_without_children(self):
        device, pool, tree = self.loaded()
        self.rewrite(device, pool, tree._root_id, header=(4, 0, 0xFFFFFFFF))
        with pytest.raises(PageCorruptionError):
            tree.get((5,))

    def test_child_past_the_device(self):
        device, pool, tree = self.loaded()
        self.rewrite(device, pool, tree._root_id, child=device.num_pages)
        with pytest.raises(PageCorruptionError) as excinfo:
            tree.get((0,))
        assert excinfo.value.page_id == tree._root_id
        self.rewrite(device, pool, tree._root_id, child=-1)
        with pytest.raises(PageCorruptionError):
            list(tree.items())

    def test_next_leaf_past_the_device(self):
        device, pool, tree = self.loaded()
        leaf_id, _data, count, _next = tree._find_leaf(None)
        self.rewrite(device, pool, leaf_id, header=(3, count, device.num_pages + 7))
        assert tree.get((0,)) == 0  # a point lookup never follows the link
        with pytest.raises(PageCorruptionError) as excinfo:
            list(tree.items())
        assert excinfo.value.page_id == leaf_id

    def test_child_cycle_is_bounded_by_the_height(self):
        device, pool, tree = self.loaded()
        self.rewrite(device, pool, tree._root_id, child=tree._root_id)
        with pytest.raises(PageCorruptionError):
            tree.get((0,))

    @pytest.mark.parametrize("layout", ["record", "bytes"])
    def test_other_layouts_page_is_a_format_error(self, layout):
        device, pool, tree = self.loaded()
        if layout == "record":
            image = RecordPage(RecordCodec("q"), device.page_size).to_bytes()
        else:
            image = BytesPage(device.page_size, b"blob").to_bytes()
        device.write(tree._root_id, image)
        pool.clear()
        with pytest.raises(PageFormatError):
            tree.get((5,))
