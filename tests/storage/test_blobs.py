"""Unit tests for the packed blob store."""

import random

import pytest

from repro.storage import BlobStore, BlockDevice, BufferPool, StorageError


def make_store(page_size=256, capacity=64):
    device = BlockDevice(page_size=page_size)
    pool = BufferPool(device, capacity=capacity)
    return device, pool, BlobStore(pool)


class TestBuildGet:
    def test_roundtrip(self):
        _d, _p, store = make_store()
        store.build([((1,), b"hello"), ((2,), b"world!")])
        assert store.get((1,)) == b"hello"
        assert store.get((2,)) == b"world!"

    def test_absent_key(self):
        _d, _p, store = make_store()
        store.build([((1,), b"x")])
        assert store.get((9,)) is None
        assert (9,) not in store
        assert (1,) in store

    def test_empty_blobs_skipped(self):
        _d, _p, store = make_store()
        store.build([((1,), b""), ((2,), b"y")])
        assert (1,) not in store
        assert store.num_blobs == 1

    def test_build_twice_rejected(self):
        _d, _p, store = make_store()
        store.build([])
        with pytest.raises(StorageError):
            store.build([])

    def test_build_empty(self):
        _d, _p, store = make_store()
        store.build([])
        assert store.num_pages == 0


class TestPacking:
    def test_small_blobs_share_pages(self):
        _d, _p, store = make_store(page_size=256)
        store.build([((k,), b"ab" * 5) for k in range(10)])  # 100 bytes total
        assert store.num_pages == 1

    def test_large_blob_spans_pages(self):
        _d, _p, store = make_store(page_size=128)
        big = bytes(range(256)) * 4  # 1024 bytes
        store.build([((0,), big)])
        assert store.num_pages > 1
        assert store.get((0,)) == big

    def test_blob_not_split_when_it_fits_a_fresh_page(self):
        device, pool, store = make_store(page_size=256)
        # first blob leaves little room; second fits alone in one page
        almost_full = b"a" * 200
        medium = b"b" * 100
        store.build([((0,), almost_full), ((1,), medium)])
        pool.clear()
        device.reset_stats()
        assert store.get((1,)) == medium
        # directory descent + exactly one payload page
        assert device.stats.reads <= store.directory.height + 1

    def test_many_random_blobs(self):
        rng = random.Random(8)
        blobs = {
            (k,): bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
            for k in range(60)
        }
        _d, _p, store = make_store(page_size=128, capacity=512)
        store.build(blobs.items())
        for key, blob in blobs.items():
            assert store.get(key) == blob

    def test_size_accounting(self):
        device, _p, store = make_store()
        store.build([((k,), b"z" * 50) for k in range(20)])
        assert store.size_in_bytes == (
            store.num_pages * device.page_size + store.directory.size_in_bytes
        )
