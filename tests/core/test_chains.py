"""Unit tests for keyed record chains."""

import pytest

from repro.core import ChainStore
from repro.core.chains import _unpack_locator
from repro.storage import (
    BlockDevice,
    BufferPool,
    PageCorruptionError,
    PageFormatError,
    RecordCodec,
)
from repro.storage.pages import BytesPage


def make_store(page_size=256, capacity=64):
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=capacity)
    return device, pool, ChainStore(pool, RecordCodec("qi"))


def write(store, groups):
    """Write non-empty ``(key, records)`` groups as encoded runs, in key
    order."""
    store.write(
        (key, store.codec.pack(records), len(records))
        for key, records in sorted(groups)
        if records
    )


class TestBuildGet:
    def test_roundtrip(self):
        _d, _p, store = make_store()
        write(store, [((1, 0), [(10, 0), (11, 1)]), ((2, 5), [(20, 2)])])
        assert store.get((1, 0)) == [(10, 0), (11, 1)]
        assert store.get((2, 5)) == [(20, 2)]

    def test_absent_key_empty(self):
        _d, _p, store = make_store()
        write(store, [((1,), [(1, 1)])])
        assert store.get((9,)) == []
        assert (9,) not in store
        assert (1,) in store

    def test_long_chain_spans_pages(self):
        _d, _p, store = make_store(page_size=64)
        records = [(i, i % 7) for i in range(200)]
        write(store, [((0,), records)])
        assert store.get((0,)) == records
        assert store.num_chain_pages > 1

    def test_build_empty(self):
        _d, _p, store = make_store()
        write(store, [])
        assert store.num_records == 0


class CountingCodec(RecordCodec):
    """Counts the records :meth:`unpack` is asked to decode."""

    decoded = 0

    def unpack(self, data, count, offset=0, keys=None):
        self.decoded += count
        return super().unpack(data, count, offset, keys)


class TestSliceDecode:
    def build(self, groups, page_size=256):
        pool = BufferPool(BlockDevice(page_size=page_size), capacity=64)
        store = ChainStore(pool, CountingCodec("qi"))
        write(store, groups)
        return pool, store

    def test_get_decodes_only_the_records_it_returns(self):
        groups = [((k,), [(k, i) for i in range(3)]) for k in range(6)]
        _pool, store = self.build(groups)
        assert store.num_chain_pages == 1  # six groups share the page
        for key, records in groups:
            store.codec.decoded = 0
            assert store.get(key) == records
            assert store.codec.decoded == len(records)

    def test_spanning_group_decodes_each_record_once(self):
        records = [(i, i % 7) for i in range(100)]
        _pool, store = self.build([((0,), [(9, 9)]), ((1,), records)], page_size=64)
        store.codec.decoded = 0
        assert store.get((1,)) == records
        assert store.codec.decoded == len(records)

    def test_damaged_headers_are_still_detected(self):
        pool, store = self.build([((0,), [(1, 1), (2, 2)])])
        page_id = store._page_ids[0]
        image = pool.get(page_id)
        pool.put(page_id, b"\x09" + image[1:])
        with pytest.raises(PageCorruptionError, match="unknown page type"):
            store.get((0,))
        damaged = bytearray(image)
        damaged[2:4] = (0xFFFF).to_bytes(2, "little")
        pool.put(page_id, bytes(damaged))
        with pytest.raises(PageCorruptionError, match="exceeds page capacity"):
            store.get((0,))
        pool.put(page_id, BytesPage(256, b"node").to_bytes().ljust(256, b"\0"))
        with pytest.raises(PageFormatError, match="expected record page"):
            store.get((0,))


class TestIOBehaviour:
    def test_chain_read_is_mostly_sequential(self):
        device, pool, store = make_store(page_size=64, capacity=8)
        write(store, [((0,), [(i, 0) for i in range(300)])])
        pool.clear()
        device.reset_stats()
        store.get((0,))
        # directory descent is random; chain pages are contiguous
        assert device.stats.sequential_reads >= store.num_chain_pages - 1

    def test_small_chain_single_page(self):
        device, pool, store = make_store(page_size=256, capacity=8)
        write(store, [((k,), [(k, 0)]) for k in range(10)])
        pool.clear()
        device.reset_stats()
        store.get((3,))
        # tree descent + one chain page
        assert device.stats.reads <= store.directory.height + 1

    def test_runs_scan_reads_each_page_once(self):
        device, pool, store = make_store(page_size=128, capacity=8)
        groups = [((k,), [(k, i) for i in range(k % 7)]) for k in range(12)]
        write(store, groups)
        assert store.directory.height == 2
        pool.clear()
        device.reset_stats()
        assert list(store.items()) == [(key, recs) for key, recs in groups if recs]
        # the root, each leaf and each record page once
        assert device.stats.reads == store.directory.num_nodes + store.num_chain_pages

    def test_size_accounting(self):
        device, _pool, store = make_store()
        write(store, [((k,), [(k, 0), (k, 1)]) for k in range(20)])
        expected = (
            store.num_chain_pages * device.page_size
            + store.directory.size_in_bytes
        )
        assert store.size_in_bytes == expected


class TestRunIntegrity:
    """Every page of a run must hold the records its locator places there.

    16-byte records on 256-byte pages: 15 records to a page.
    """

    def build(self, groups):
        device = BlockDevice(page_size=256)
        pool = BufferPool(device, capacity=64)
        store = ChainStore(pool, RecordCodec("qq"))
        write(store, groups)
        pool.flush()
        return device, pool, store

    def shorten(self, device, pool, page_id, count):
        """Cut a page's header count, checksum kept valid (a writer bug)."""
        image = device.read(page_id)
        device.patch(
            page_id, image[:2] + count.to_bytes(2, "little"), update_checksum=True
        )
        pool.crash()  # drop the cached frame so reads face the device

    def test_short_page_mid_run_is_corruption(self):
        run = [(100 + i, i) for i in range(20)]
        device, pool, store = self.build(
            [((1,), run), ((2,), [(200, 0)] * 3), ((3,), [(300, 0)] * 3)]
        )
        assert store.num_chain_pages == 2
        self.shorten(device, pool, store._page_ids[0], 10)
        for keys in (None, {100, 119}):
            with pytest.raises(PageCorruptionError, match="short page") as excinfo:
                store.get((1,), keys)
            assert excinfo.value.page_id == store._page_ids[0]
        # the keys whose pages are intact still read
        assert store.get((2,)) == [(200, 0)] * 3

    def test_short_page_at_chain_end_is_corruption(self):
        run = [(100 + i, i) for i in range(20)]
        device, pool, store = self.build([((1,), [(1, 1)] * 3), ((2,), run)])
        assert store.num_chain_pages == 2
        self.shorten(device, pool, store._page_ids[1], 5)
        for keys in (None, {100}):
            with pytest.raises(PageCorruptionError, match="short page") as excinfo:
                store.get((2,), keys)
            assert excinfo.value.page_id == store._page_ids[1]

    def test_runs_scan_detects_a_short_page(self):
        run = [(100 + i, i) for i in range(20)]
        device, pool, store = self.build([((1,), [(1, 1)] * 3), ((2,), run)])
        self.shorten(device, pool, store._page_ids[1], 5)
        with pytest.raises(PageCorruptionError, match="short page") as excinfo:
            list(store.runs())
        assert excinfo.value.page_id == store._page_ids[1]

    def test_run_starting_at_a_full_pages_end_reads_through(self):
        first = [(i, 0) for i in range(15)]
        second = [(100 + i, i) for i in range(20)]
        device, pool, store = self.build([((1,), first), ((2,), second)])
        assert _unpack_locator(store.directory.get((2,))) == (0, 15, 20)
        pool.clear()
        device.reset_stats()
        assert store.get((2,)) == second
        full_reads = device.stats.reads
        pool.clear()
        device.reset_stats()
        assert store.get((2,), {100, 110, 119, 7}) == [
            second[0], second[10], second[19]
        ]
        assert device.stats.reads == full_reads
        assert store.get((1,)) == first
