"""Property-based tests on the core data structures."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockGrid,
    EquiDepthPartitioner,
    PseudoBlockMap,
    scale_factor,
)
from repro.index import BPlusTree, BPlusTreeError
from repro.ranking import LinearFunction, LpDistance
from repro.storage import BlockDevice, BufferPool


# ----------------------------------------------------------------------
# B+-tree behaves like a sorted dict
# ----------------------------------------------------------------------
_INT64 = st.integers(-(2**63), 2**63 - 1)
#: node capacity follows the page size: 3, 15 and 255 one-int-key entries
_PAGE_SIZES = st.sampled_from([64, 256, 4096])


def _tree(page_size):
    pool = BufferPool(BlockDevice(page_size=page_size), capacity=1024)
    return BPlusTree(pool)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    entries=st.dictionaries(st.integers(0, 10_000), _INT64, max_size=200),
    page_size=_PAGE_SIZES,
)
def test_bptree_equals_dict_model(entries, page_size):
    tree = _tree(page_size)
    for key, value in entries.items():
        tree.insert((key,), value)
    assert len(tree) == len(entries)
    for key, value in entries.items():
        assert tree.get((key,)) == value
    assert [k[0] for k, _v in tree.items()] == sorted(entries)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    entries=st.dictionaries(st.integers(0, 1000), _INT64, min_size=1, max_size=40),
    value=st.one_of(st.integers(max_value=-(2**63) - 1), st.integers(min_value=2**63)),
    page_size=_PAGE_SIZES,
)
def test_bptree_rejects_values_outside_int64(entries, value, page_size):
    """A value the page format cannot hold raises; it is never truncated,
    and the failed call leaves the tree as it was."""
    tree = _tree(page_size)
    for key, stored in entries.items():
        tree.insert((key,), stored)
    with pytest.raises(BPlusTreeError):
        tree.insert((2000,), value)
    with pytest.raises(BPlusTreeError):
        _tree(page_size).bulk_load([((0,), 0), ((1,), value)])
    assert dict(tree.items()) == {(key,): v for key, v in entries.items()}


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    keys=st.sets(st.integers(0, 1000), max_size=150),
    lo=st.integers(0, 1000),
    span=st.integers(0, 300),
    page_size=_PAGE_SIZES,
)
def test_bptree_range_scan_equals_model(keys, lo, span, page_size):
    tree = _tree(page_size)
    tree.bulk_load(sorted(((k,), k) for k in keys))
    hi = lo + span
    got = [k[0] for k, _v in tree.range_scan((lo,), (hi,))]
    assert got == sorted(k for k in keys if lo <= k < hi)


# ----------------------------------------------------------------------
# partitioning invariants
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    values=st.lists(
        st.floats(0, 1, allow_nan=False, width=32), min_size=2, max_size=300
    ),
    block_size=st.integers(1, 50),
)
def test_equi_depth_invariants(values, block_size):
    grid = EquiDepthPartitioner().build_grid(("n1",), [values], block_size)
    edges = grid.boundaries[0]
    # strictly increasing, covering the data
    assert all(a < b for a, b in zip(edges, edges[1:]))
    assert edges[0] <= min(values)
    assert edges[-1] >= max(values)
    # every value locates into a valid block
    for value in values:
        assert 0 <= grid.locate((value,)) < grid.num_blocks


@settings(max_examples=30, deadline=None)
@given(
    bins=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    sf=st.integers(1, 12),
)
def test_pseudo_blocks_partition_grid(bins, sf):
    boundaries = tuple(
        tuple(i / b for i in range(b + 1)) for b in bins
    )
    grid = BlockGrid(("x", "y"), boundaries)
    pseudo = PseudoBlockMap(grid, sf=sf)
    seen = []
    for pid in range(pseudo.num_pseudo_blocks):
        for bid in pseudo.bids_of_pid(pid):
            assert pseudo.pid_of_bid(bid) == pid
            seen.append(bid)
    assert sorted(seen) == list(range(grid.num_blocks))


@settings(max_examples=50, deadline=None)
@given(
    cards=st.lists(st.integers(1, 500), min_size=0, max_size=4),
    r=st.integers(1, 4),
)
def test_scale_factor_restores_occupancy(cards, r):
    sf = scale_factor(cards, r)
    product = 1
    for c in cards:
        product *= c
    # sf^r >= prod(c) (cells re-fill the physical block) and sf is minimal
    assert sf ** r >= product * (1 - 1e-9)
    if sf > 1:
        assert (sf - 1) ** r < product


# ----------------------------------------------------------------------
# block lower bounds really are lower bounds
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    weights=st.tuples(
        st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False)
    ),
    lower=st.tuples(st.floats(0, 0.8, allow_nan=False), st.floats(0, 0.8, allow_nan=False)),
    width=st.tuples(st.floats(0.01, 0.2), st.floats(0.01, 0.2)),
    point=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_linear_block_bound_is_sound(weights, lower, width, point):
    fn = LinearFunction(["x", "y"], list(weights))
    upper = tuple(lo + w for lo, w in zip(lower, width))
    interior = tuple(lo + p * (hi - lo) for lo, hi, p in zip(lower, upper, point))
    assert fn.min_over_box(lower, upper) <= fn.score(interior) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    target=st.tuples(st.floats(0, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
    p=st.sampled_from([1.0, 2.0, 3.0]),
    lower=st.tuples(st.floats(0, 0.8, allow_nan=False), st.floats(0, 0.8, allow_nan=False)),
    width=st.tuples(st.floats(0.01, 0.2), st.floats(0.01, 0.2)),
    point=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_lp_block_bound_is_sound(target, p, lower, width, point):
    fn = LpDistance(["x", "y"], list(target), p=p)
    upper = tuple(lo + w for lo, w in zip(lower, width))
    interior = tuple(lo + t * (hi - lo) for lo, hi, t in zip(lower, upper, point))
    assert fn.min_over_box(lower, upper) <= fn.score(interior) + 1e-9


# ----------------------------------------------------------------------
# buffer pool behaves like an LRU model
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    accesses=st.lists(st.integers(0, 9), min_size=1, max_size=100),
    capacity=st.integers(1, 6),
)
def test_buffer_pool_matches_lru_model(accesses, capacity):
    device = BlockDevice(page_size=64)
    ids = device.allocate_many(10)
    pool = BufferPool(device, capacity=capacity)

    model: list[int] = []  # LRU order, most recent last
    expected_hits = 0
    for page in accesses:
        if page in model:
            expected_hits += 1
            model.remove(page)
        elif len(model) >= capacity:
            model.pop(0)
        model.append(page)
        pool.get(ids[page])
    assert pool.stats.hits == expected_hits
    assert pool.resident == len(model)


@settings(max_examples=30, deadline=None)
@given(
    edges1=st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8,
                    unique=True).map(sorted),
    edges2=st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=8,
                    unique=True).map(sorted),
    points=st.lists(
        st.tuples(st.floats(-1, 2, allow_nan=False), st.floats(-1, 2, allow_nan=False)),
        min_size=1, max_size=60,
    ),
)
def test_locate_many_equals_locate(edges1, edges2, points):
    grid = BlockGrid(("x", "y"), (tuple(edges1), tuple(edges2)))
    assert grid.locate_many(points).tolist() == [grid.locate(p) for p in points]
