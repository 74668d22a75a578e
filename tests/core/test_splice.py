"""Property: :meth:`ChainStore.splice` writes the image :meth:`ChainStore.write`
writes for the encoded union, page image for page image.

Each case builds the same old store on two devices, then on one device
writes the union ``old + additions`` encoded afresh and on the other
splices the encoded additions onto the old store's runs.  The two devices must end
with the same pages in the same order: record pages and directory pages,
allocation order included.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ChainStore
from repro.storage import BlockDevice, BufferPool, RecordCodec

PAGE_SIZE = 128
#: cuboid cells (tid, bid) — 10 to a 128-byte page
QI = RecordCodec("qi")
#: base blocks (tid, n1, n2) — 5 to a 128-byte page
BASE = RecordCodec("qdd")

_tids = st.integers(min_value=0, max_value=2**40)


def _records(codec):
    if codec is QI:
        return st.tuples(_tids, st.integers(min_value=0, max_value=2**31 - 1))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.tuples(_tids, finite, finite)


def _groups(codec, max_keys=8, max_len=25):
    return st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.lists(_records(codec), max_size=max_len),
        max_size=max_keys,
    )


def _images(device):
    return [device.read(page_id) for page_id in range(device.num_pages)]


def _encoded(codec, groups):
    """Non-empty ``{key: records}`` groups as key-ordered encoded runs."""
    return [
        (key, codec.pack(groups[key]), len(groups[key]))
        for key in sorted(groups)
        if groups[key]
    ]


def built_and_spliced(codec, old, additions):
    """Device images of (build of the union, splice onto old) stores."""
    old = {(k,): v for k, v in old.items()}
    additions = {(k,): v for k, v in additions.items()}
    union = {key: list(records) for key, records in old.items()}
    for key, records in additions.items():
        union.setdefault(key, []).extend(records)

    images = []
    for splice in (False, True):
        device = BlockDevice(page_size=PAGE_SIZE)
        pool = BufferPool(device, capacity=16)
        previous = ChainStore(pool, codec)
        previous.write(_encoded(codec, old))
        store = ChainStore(pool, codec)
        if splice:
            store.splice(previous.runs(), _encoded(codec, additions))
        else:
            store.write(_encoded(codec, union))
        pool.flush()
        assert store.num_records == sum(map(len, union.values()))
        # the in-memory counts the cost model walks, on either path
        assert store.counts == {
            key: len(records) for key, records in union.items() if records
        }
        assert list(store.items()) == [
            (key, union[key]) for key in sorted(union) if union[key]
        ]
        images.append(_images(device))
    return images


def _run(codec, count, first=0):
    return [(first + i, i) if codec is QI else (first + i, i / 3, -i) for i in range(count)]


@pytest.mark.parametrize("codec", [QI, BASE], ids=["qi", "base"])
class TestSpliceCases:
    """Named layouts: each must splice to the built image."""

    def check(self, codec, old, additions):
        built, spliced = built_and_spliced(codec, old, additions)
        assert spliced == built

    def test_run_exactly_fills_a_page(self, codec):
        cap = codec.capacity(PAGE_SIZE)
        self.check(codec, {1: _run(codec, 2), 2: _run(codec, 1)},
                   {2: _run(codec, cap - 1, 100)})

    def test_runs_span_several_pages(self, codec):
        cap = codec.capacity(PAGE_SIZE)
        self.check(codec, {1: _run(codec, 3), 5: _run(codec, 2 * cap + 1)},
                   {1: _run(codec, 3 * cap, 100), 5: _run(codec, cap, 900)})

    def test_keys_before_between_after_and_only_added(self, codec):
        self.check(
            codec,
            {3: _run(codec, 2), 7: _run(codec, 4)},
            {0: _run(codec, 1, 50), 5: _run(codec, 3, 60),
             7: _run(codec, 2, 70), 9: _run(codec, 6, 80)},
        )

    def test_run_starting_at_a_full_pages_end(self, codec):
        cap = codec.capacity(PAGE_SIZE)
        self.check(codec, {1: _run(codec, cap)}, {2: _run(codec, cap + 2, 100)})

    def test_empty_additions(self, codec):
        self.check(codec, {1: _run(codec, 4), 2: _run(codec, 11)}, {})
        self.check(codec, {1: _run(codec, 4)}, {1: [], 3: []})

    def test_empty_old_store(self, codec):
        self.check(codec, {}, {4: _run(codec, 7), 2: _run(codec, 1)})
        self.check(codec, {}, {})


@settings(max_examples=60, deadline=None)
@given(old=_groups(QI), additions=_groups(QI))
@example(old={}, additions={})
@example(old={1: [(0, 0)] * 10}, additions={1: [(1, 1)] * 10})
def test_qi_splice_equals_build_of_the_union(old, additions):
    built, spliced = built_and_spliced(QI, old, additions)
    assert spliced == built


@settings(max_examples=60, deadline=None)
@given(old=_groups(BASE), additions=_groups(BASE))
@example(old={}, additions={2: [(5, 0.0, -0.0)] * 11})
@example(old={0: [(1, 0.5, 0.5)] * 5, 9: [(2, 1.0, 1.0)]}, additions={4: [(3, 2.0, 2.0)] * 5})
def test_base_splice_equals_build_of_the_union(old, additions):
    built, spliced = built_and_spliced(BASE, old, additions)
    assert spliced == built

