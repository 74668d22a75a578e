"""Unit tests for the cross-query caches (repro.serve.cache)."""

import threading

import pytest

from repro.serve import BoundMemo, PseudoBlockCache


def key(name, cell=(1,), pid=0):
    return (name, tuple(cell), pid)


def block(*sizes):
    """A decoded {bid: [tid, ...]} map with the given per-bid tid counts."""
    return {bid: list(range(count)) for bid, count in enumerate(sizes)}


class TestPseudoBlockCache:
    def test_get_put_roundtrip(self):
        cache = PseudoBlockCache()
        assert cache.get(key("c")) is None
        cache.put(key("c"), block(3, 2))
        assert cache.get(key("c")) == {0: [0, 1, 2], 1: [0, 1]}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_put_is_idempotent(self):
        cache = PseudoBlockCache()
        first = block(2)
        cache.put(key("c"), first)
        cache.put(key("c"), block(2))
        assert cache.get(key("c")) is first
        assert cache.stats.insertions == 1
        assert cache.resident_entries == 1

    def test_entry_capacity_evicts_lru(self):
        cache = PseudoBlockCache(capacity_entries=2)
        cache.put(key("c", pid=0), block(1))
        cache.put(key("c", pid=1), block(1))
        cache.get(key("c", pid=0))  # refresh pid=0: pid=1 is now LRU
        cache.put(key("c", pid=2), block(1))
        assert key("c", pid=0) in cache
        assert key("c", pid=1) not in cache
        assert key("c", pid=2) in cache
        assert cache.stats.evictions == 1

    def test_tid_capacity_bounds_memory(self):
        cache = PseudoBlockCache(capacity_entries=100, capacity_tids=10)
        for pid in range(5):
            cache.put(key("c", pid=pid), block(4))  # 4 tids each
        assert cache.resident_tids <= 10
        assert cache.resident_entries < 5
        assert cache.stats.evictions > 0

    def test_oversized_entry_rejected_not_admitted(self):
        # regression: an entry bigger than capacity_tids used to evict the
        # whole cache and then sit above the memory bound forever; it is
        # now rejected up front and the resident set is untouched
        cache = PseudoBlockCache(capacity_entries=8, capacity_tids=4)
        cache.put(key("c", pid=0), block(2))
        cache.put(key("c", pid=1), block(50))
        assert key("c", pid=0) in cache
        assert key("c", pid=1) not in cache
        assert cache.resident_tids == 2
        assert cache.stats.oversized_rejections == 1
        assert cache.stats.evictions == 0
        # a rejected key stays insertable once it fits
        cache.put(key("c", pid=1), block(2))
        assert key("c", pid=1) in cache

    def test_resident_tids_never_exceeds_bound(self):
        cache = PseudoBlockCache(capacity_entries=100, capacity_tids=10)
        for pid in range(20):
            cache.put(key("c", pid=pid), block(3, 4))
            assert cache.resident_tids <= 10

    def test_invalidate_cuboids_is_selective(self):
        cache = PseudoBlockCache()
        cache.put(key("left", pid=0), block(2))
        cache.put(key("left", pid=1), block(2))
        cache.put(key("right", pid=0), block(2))
        dropped = cache.invalidate_cuboids(["left"])
        assert dropped == 2
        assert key("left", pid=0) not in cache
        assert key("right", pid=0) in cache
        assert cache.stats.invalidations == 2
        assert cache.resident_tids == 2

    def test_clear_counts_as_invalidation(self):
        cache = PseudoBlockCache()
        cache.put(key("c"), block(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_tids == 0
        assert cache.stats.evictions == 0
        assert cache.stats.invalidations == 1

    def test_rejects_degenerate_capacities(self):
        with pytest.raises(ValueError):
            PseudoBlockCache(capacity_entries=0)
        with pytest.raises(ValueError):
            PseudoBlockCache(capacity_tids=0)

    def test_concurrent_hammer_stays_consistent(self):
        cache = PseudoBlockCache(capacity_entries=32, capacity_tids=256)
        errors = []

        def worker(wid):
            try:
                for i in range(300):
                    k = key("c", pid=(wid * 7 + i) % 48)
                    got = cache.get(k)
                    if got is None:
                        cache.put(k, block(4))
                    else:
                        assert got == {0: [0, 1, 2, 3]}
                cache.invalidate_cuboids(["c"]) if wid == 0 else None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.resident_entries <= 32
        assert cache.resident_tids <= 256
        # tid accounting stayed exact through races
        assert cache.resident_tids == 4 * cache.resident_entries


class FakeGrid:
    dims = ("n1", "n2")
    boundaries = ((0.0, 0.5, 1.0), (0.0, 0.5, 1.0))


class FakeFn:
    def __init__(self, signature):
        self._signature = signature

    def cache_key(self):
        return self._signature


class TestBoundMemo:
    def test_group_shared_per_function_and_grid(self):
        memo = BoundMemo()
        fn = FakeFn(("linear", ("n1",), (1.0,)))
        group = memo.group(fn, FakeGrid())
        assert memo.group(fn, FakeGrid()) is group
        other = memo.group(FakeFn(("linear", ("n1",), (2.0,))), FakeGrid())
        assert other is not group

    def test_lookup_store_counts(self):
        memo = BoundMemo()
        group = memo.group(FakeFn(("k",)), FakeGrid())
        assert memo.lookup(group, 3) is None
        memo.store(group, 3, 0.25)
        assert memo.lookup(group, 3) == 0.25
        assert memo.stats.hits == 1
        assert memo.stats.misses == 1
        assert memo.stats.insertions == 1

    def test_opaque_functions_not_memoized(self):
        memo = BoundMemo()
        assert memo.group(FakeFn(None), FakeGrid()) is None
        assert memo.lookup(None, 0) is None
        memo.store(None, 0, 1.0)  # dropped, no crash
        assert memo.stats.insertions == 0

    def test_capacity_evicts_whole_groups(self):
        memo = BoundMemo(capacity=2)
        g1 = memo.group(FakeFn(("f1",)), FakeGrid())
        memo.store(g1, 0, 0.0)
        memo.group(FakeFn(("f2",)), FakeGrid())
        memo.group(FakeFn(("f3",)), FakeGrid())
        assert memo.resident_groups == 2
        assert memo.stats.evictions == 1
        # f1 was LRU: a fresh group comes back empty
        assert memo.group(FakeFn(("f1",)), FakeGrid()) == {}

    def test_real_ranking_functions_have_value_keys(self):
        from repro.ranking import (
            ConvexFunction,
            LinearFunction,
            LpDistance,
            RankingFunctionError,
            descending,
        )

        a = LinearFunction(["n1", "n2"], [1.0, 2.0])
        b = LinearFunction(["n1", "n2"], [1.0, 2.0])
        c = LinearFunction(["n1", "n2"], [2.0, 1.0])
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()
        assert LpDistance(["n1"], [0.5]).cache_key() is not None
        assert descending(a).cache_key() is not None
        opaque = ConvexFunction(["n1"], lambda x: x * x, subgradient=lambda x: (2 * x,))
        assert opaque.cache_key() is None
        with pytest.raises(RankingFunctionError):  # only linear functions flip
            descending(opaque)


class TestTidBoundProperty:
    """Seeded-random property: ``resident_tids <= capacity_tids`` must hold
    after EVERY operation, whatever the interleaving of puts, repeats,
    invalidations, and clears."""

    def test_random_ops_never_exceed_tid_capacity(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        op = st.tuples(
            st.sampled_from(["put", "invalidate", "clear"]),
            st.integers(min_value=0, max_value=5),  # cuboid index
            st.integers(min_value=0, max_value=7),  # pid
            st.integers(min_value=0, max_value=20),  # tid count for put
        )

        @hypothesis.given(ops=st.lists(op, max_size=60))
        @hypothesis.settings(max_examples=60, deadline=None)
        def run(ops):
            cache = PseudoBlockCache(capacity_entries=6, capacity_tids=12)
            for kind, cuboid, pid, count in ops:
                if kind == "put":
                    cache.put(key(f"c{cuboid}", pid=pid), block(count))
                elif kind == "invalidate":
                    cache.invalidate_cuboids([f"c{cuboid}"])
                else:
                    cache.clear()
                assert cache.resident_tids <= 12
                assert cache.resident_entries <= 6
            snap = cache.stats.snapshot()
            resident = (
                snap["insertions"] - snap["evictions"] - snap["invalidations"]
            )
            assert resident == cache.resident_entries

        run()
