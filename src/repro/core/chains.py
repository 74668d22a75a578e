"""Packed, keyed record runs with a B+-tree directory.

Both halves of the ranking cube's physical layout use the same pattern: a
set of variable-length record lists (one per base block / per cuboid cell)
located through a clustered B+-tree directory.  Groups are written in key
order and *packed*: a group that fits in the current page's free space
shares the page with its key-order neighbors (so reading a small cell is
one random page read, like a clustered-index leaf); a group larger than
the free space starts on a fresh page and spans consecutive pages (one
random read plus sequential reads).  Packing is what keeps the fragments'
space usage in the paper's ~1-2.5x band (Figure 11) instead of paying a
full page per sparse cell.

The directory is a :class:`~repro.index.bptree.BPlusTree` whose entries
``(key components..., locator)`` are struct-packed at 8 bytes a component,
so a 4 KiB directory page holds 127 three-component cells and a realistic
cuboid's directory is two levels: a cold :meth:`ChainStore.get` is two
directory page reads plus the cell's own pages, and a warm one decodes
nothing but the keys its binary searches touch.

A read may name the record keys it wants (``get(key, keys=...)``): the
run's pages are read exactly as for a full read, but of each record only
the leading field is unpacked, and only the members are decoded whole —
the evaluate step decodes the one or two tuples the retrieve step
qualified, not the block's ~30.

Layout works on encoded runs ``(key, record bytes, count)`` only:
:meth:`write` lays out the runs :func:`~repro.core.cube.group_rows`
encodes, and :meth:`splice` lays out another store's :meth:`runs` with
encoded additions joined on per key, so a compaction copies bytes and
packs no record.  The packing rule reads only run lengths, so a splice
writes the image :meth:`write` writes for the merged runs.
"""

from __future__ import annotations

import heapq
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator

from ..index.bptree import BPlusTree
from ..storage.buffer import BufferPool
from ..storage.pages import RecordCodec, RecordPage, check_stored


class ChainStore:
    """Keyed record runs over paged storage (build once, read many).

    Parameters
    ----------
    pool:
        Buffer pool of the shared device.
    codec:
        Record layout of stored entries.
    """

    def __init__(self, pool: BufferPool, codec: RecordCodec):
        self.pool = pool
        self.codec = codec
        self.page_size = pool.device.page_size
        self.directory = BPlusTree(pool)
        self._page_ids: list[int] = []
        self._num_records = 0
        #: record count per stored key, as the directory locators pack it:
        #: statistics a planner reads without page I/O
        self.counts: dict[tuple, int] = {}
        self._built = False

    # ------------------------------------------------------------------
    def write(self, runs: Iterable[tuple[tuple, bytes, int]]) -> None:
        """Bulk build from encoded ``(key, record bytes, count)`` runs in
        strictly ascending key order (as :func:`~repro.core.cube.group_rows`
        returns them): runs packed onto fresh pages in that order, the
        directory mapping each key to ``(page_index, slot, count)``
        packed into one integer."""
        if self._built:
            raise RuntimeError("ChainStore may only be built once")
        self._built = True
        capacity = self.codec.capacity(self.page_size)
        size = self.codec.record_size
        pages: list[tuple[list[bytes], int]] = []  # (body parts, records)
        parts: list[bytes] = []
        filled = 0
        directory_pairs = []
        for key, data, count in runs:
            if capacity - filled < count <= capacity:
                # does not fit here but fits in one fresh page: avoid a split
                pages.append((parts, filled))
                parts, filled = [], 0
            directory_pairs.append(
                (key, _pack_locator(len(pages), filled, count))
            )
            self.counts[key] = count
            self._num_records += count
            if count <= capacity - filled:
                # the common case: the whole run lands on the current page
                parts.append(data)
                filled += count
                continue
            view = memoryview(data)
            done = 0
            while done < count:
                if filled == capacity:
                    pages.append((parts, filled))
                    parts, filled = [], 0
                take = min(capacity - filled, count - done)
                parts.append(view[done * size:(done + take) * size])
                filled += take
                done += take
        if filled:
            pages.append((parts, filled))

        self._page_ids = self.pool.device.allocate_many(len(pages))
        for page_id, (body, filled) in zip(self._page_ids, pages):
            self.pool.put(page_id, RecordPage.image(b"".join(body), filled))
        self.directory.bulk_load(directory_pairs)

    def splice(
        self,
        runs: Iterable[tuple[tuple, bytes, int]],
        additions: Iterable[tuple[tuple, bytes, int]],
    ) -> None:
        """Build from two key-ordered encoded run streams: another store's
        :meth:`runs`, with each key's ``additions`` appended to its run
        (keys absent from ``runs`` become new runs).  Both are copied as
        bytes, and the packing rule sees nothing but each key's record
        count, so the image equals :meth:`write` over the merged runs."""
        self.write(_merge_runs(runs, additions))

    def runs(self) -> Iterator[tuple[tuple, bytes, int]]:
        """Iterate the stored ``(key, record bytes, count)`` runs in key
        order: one pass over the directory's leaves, each record page read
        and header-checked once (runs share pages in key order)."""
        capacity = self.codec.capacity(self.page_size)
        size = self.codec.record_size
        current, body, stored = -1, b"", 0
        for key, locator in self.directory.items():
            page_index, slot, total = _unpack_locator(locator)
            chunks = []
            count = total
            while count > 0:
                take = min(count, capacity - slot)
                page_id = self._page_ids[page_index]
                if page_index != current:
                    body, stored = RecordPage.body(
                        self.pool.get(page_id), self.codec, self.page_size, page_id
                    )
                    current = page_index
                check_stored(stored, slot, take, page_id)
                chunks.append(body[slot * size:(slot + take) * size])
                count -= take
                page_index += 1
                slot = 0
            yield key, b"".join(chunks), total

    def get(self, key: tuple, keys=None) -> list[tuple]:
        """All records under ``key`` (empty list if the key is absent).

        With ``keys``, only the records whose leading field is in that
        set, in stored order — the same pages are read, but only the
        members are decoded whole.  Each page of the run must hold the
        records the locator places on it; a page whose header claims
        fewer raises :class:`PageCorruptionError` instead of letting the
        walk take the next key's records as this one's.
        """
        locator = self.directory.get(tuple(key))
        if locator is None:
            return []
        page_index, slot, count = _unpack_locator(locator)
        capacity = self.codec.capacity(self.page_size)
        records: list[tuple] = []
        while count > 0:
            # slot == capacity is a run that starts at a full page's end:
            # that page delivers nothing and the run continues on the next
            take = min(count, capacity - slot)
            page_id = self._page_ids[page_index]
            records += RecordPage.read_slice(
                self.pool.get(page_id), self.codec, self.page_size,
                slot, take, page_id, keys,
            )
            count -= take
            page_index += 1
            slot = 0
        return records

    def __contains__(self, key: tuple) -> bool:
        return self.directory.get(tuple(key)) is not None

    def items(self) -> Iterable[tuple[tuple, list[tuple]]]:
        """Iterate ``(key, records)`` in key order (maintenance scans)."""
        unpack = self.codec.unpack
        for key, data, count in self.runs():
            yield key, unpack(data, count)

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_chain_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_in_bytes(self) -> int:
        return (len(self._page_ids) * self.page_size) + self.directory.size_in_bytes


def _merge_runs(
    runs: Iterable[tuple[tuple, bytes, int]],
    additions: Iterable[tuple[tuple, bytes, int]],
) -> Iterator[tuple[tuple, bytes, int]]:
    """Key-ordered ``runs`` with each key's run of ``additions`` (also
    key-ordered) joined onto its end; added keys no run holds come in at
    their key position (``heapq.merge`` puts ``runs`` first on a tie)."""
    merged = heapq.merge(runs, additions, key=itemgetter(0))
    for key, parts in groupby(merged, key=itemgetter(0)):
        _keys, data, counts = zip(*parts)
        yield key, b"".join(data), sum(counts)


_SLOT_BITS = 12    # up to 4095 records per page
_COUNT_BITS = 24   # up to ~16M records per group


def _pack_locator(page_index: int, slot: int, count: int) -> int:
    if slot >= (1 << _SLOT_BITS) or count >= (1 << _COUNT_BITS):
        raise ValueError(f"locator out of range: slot={slot} count={count}")
    return (page_index << (_SLOT_BITS + _COUNT_BITS)) | (slot << _COUNT_BITS) | count


def _unpack_locator(locator: int) -> tuple[int, int, int]:
    count = locator & ((1 << _COUNT_BITS) - 1)
    slot = (locator >> _COUNT_BITS) & ((1 << _SLOT_BITS) - 1)
    page_index = locator >> (_SLOT_BITS + _COUNT_BITS)
    return page_index, slot, count
