"""Heap files: unordered fixed-length-record table storage.

A heap file is a chain of :class:`~repro.storage.pages.RecordPage` images.
Records are addressed by *rid* ``(page_index, slot)`` where ``page_index``
is the position in the chain (not the raw device page id); this keeps rids
stable and compact.  The heap supports the two access paths the paper's
baselines need: full sequential scan and random fetch by rid.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from .buffer import BufferPool
from .device import PageCorruptionError, StorageError
from .pages import RecordCodec, RecordPage

Rid = tuple[int, int]


class HeapFile:
    """An append-only heap of fixed-length records.

    Parameters
    ----------
    pool:
        Buffer pool through which all page I/O flows.
    codec:
        Record codec describing the record layout.
    """

    def __init__(self, pool: BufferPool, codec: RecordCodec):
        self.pool = pool
        self.codec = codec
        self.page_size = pool.device.page_size
        self._page_ids: list[int] = []
        self._num_records = 0
        self._tail: RecordPage | None = None  # write buffer for the last page

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, record: tuple) -> Rid:
        """Append one record and return its rid."""
        tail = self._writable_tail()
        slot = tail.append(record)
        self._num_records += 1
        self._flush_tail()
        return (len(self._page_ids) - 1, slot)

    def extend(self, records: Iterable[tuple]) -> list[Rid]:
        """Bulk append; far fewer page writes than repeated :meth:`append`."""
        rids: list[Rid] = []
        tail = self._writable_tail()
        for record in records:
            if tail.is_full:
                self._flush_tail()
                tail = self._new_tail()
            slot = tail.append(record)
            rids.append((len(self._page_ids) - 1, slot))
            self._num_records += 1
        self._flush_tail()
        return rids

    def bulk_load(self, records: Iterable[tuple]) -> None:
        """Sequentially load an *empty* heap in one pass, then seal it.

        Allocates the full extent up front (consecutive page ids) and
        writes each full page's image once, packed whole, in page-id
        order — so the device meters the load as one sequential write
        stream (see ``IOStats.sequential_writes``) instead of the
        write-rewrite pattern :meth:`extend` produces while linking tail
        pages.  The pages are byte-identical to an ``extend`` + ``seal``
        of the same records; a non-empty heap takes that path, since only
        a chain we own whole has every page full but the last.
        """
        records = list(records)
        if self._page_ids or self._tail is not None:
            self.extend(records)
            self.seal()
            return
        capacity = self.codec.capacity(self.page_size)
        page_ids = self.pool.device.allocate_many(-(-len(records) // capacity))
        for index, page_id in enumerate(page_ids):
            chunk = records[index * capacity:(index + 1) * capacity]
            following = page_ids[index + 1] if index + 1 < len(page_ids) else None
            self.pool.put(
                page_id, RecordPage.image(self.codec.pack(chunk), len(chunk), following)
            )
        self._page_ids = page_ids
        self._num_records = len(records)
        self._tail = None  # already sealed: every image is final

    def seal(self) -> None:
        """Drop the in-memory tail write buffer.

        After bulk loading, call this so every subsequent read — including
        reads of the last page — flows through the buffer pool and is
        metered like any other access.  Appending after ``seal`` reloads the
        tail transparently.
        """
        self._flush_tail()
        self._tail = None

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def fetch(self, rid: Rid) -> tuple:
        """Random access: fetch one record by rid."""
        return self.fetch_run(rid, 1)[0]

    def fetch_run(self, rid: Rid, count: int) -> list[tuple]:
        """``count`` consecutive records of one page, from ``rid`` on:
        one page load (and decode) for the whole run."""
        page_index, slot = rid
        records = self._load_page(page_index).records
        if slot + count > len(records):
            missing = (page_index, max(slot, len(records)))
            raise StorageError(
                f"rid {missing} has no record (page holds {len(records)})"
            )
        return records[slot:slot + count]

    def fetch_page(self, page_index: int) -> list[tuple]:
        """Fetch every record on one page (block-level access)."""
        return list(self._load_page(page_index).records)

    def scan(self) -> Iterator[tuple[Rid, tuple]]:
        """Sequential scan over all records in storage order."""
        for page_index in range(len(self._page_ids)):
            for slot, record in enumerate(self._load_page(page_index).records):
                yield (page_index, slot), record

    def scan_records(self) -> Iterator[tuple]:
        """Sequential scan yielding bare records."""
        for _rid, record in self.scan():
            yield record

    def scan_array(self) -> np.ndarray:
        """:meth:`scan` as one array of :attr:`RecordCodec.dtype`: the
        same pages through the same pool and checks, each body decoded
        whole by ``np.frombuffer``."""
        tail = None if self._tail is None else len(self._page_ids) - 1
        bodies = [
            RecordPage.body(self._tail.to_bytes(), self.codec, self.page_size)[0]
            if index == tail else self._read_page(index, RecordPage.body)[0]
            for index in range(len(self._page_ids))
        ]
        return np.frombuffer(b"".join(bodies), self.codec.dtype)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_records

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_in_bytes(self) -> int:
        return self.num_pages * self.page_size

    @property
    def records_per_page(self) -> int:
        return self.codec.capacity(self.page_size)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _writable_tail(self) -> RecordPage:
        if self._tail is None and self._page_ids:
            # reload the last page after a seal()
            data = self.pool.get(self._page_ids[-1])
            self._tail = RecordPage.from_bytes(data, self.codec, self.page_size)
        if self._tail is None or self._tail.is_full:
            return self._new_tail()
        return self._tail

    def _new_tail(self) -> RecordPage:
        page_id = self.pool.device.allocate()
        if self._page_ids:
            # link previous tail to the new page
            prev = self._load_page(len(self._page_ids) - 1)
            prev.next_page_id = page_id
            self.pool.put(self._page_ids[-1], prev.to_bytes())
        self._page_ids.append(page_id)
        self._tail = RecordPage(self.codec, self.page_size)
        return self._tail

    def _flush_tail(self) -> None:
        if self._tail is not None and self._page_ids:
            self.pool.put(self._page_ids[-1], self._tail.to_bytes())

    def _load_page(self, page_index: int) -> RecordPage:
        if not 0 <= page_index < len(self._page_ids):
            raise StorageError(f"heap has no page {page_index}")
        if self._tail is not None and page_index == len(self._page_ids) - 1:
            return self._tail
        return self._read_page(page_index, RecordPage.from_bytes)

    def _read_page(self, page_index: int, decode):
        """``decode(image, codec, page_size, page_id)`` of a stored page."""
        page_id = self._page_ids[page_index]
        data = self.pool.get(page_id)
        try:
            return decode(data, self.codec, self.page_size, page_id)
        except PageCorruptionError:
            # Quarantine-and-refetch: the cached image decoded as damaged;
            # drop the frame and re-read the stored image once.  Persistent
            # on-disk damage raises again, typed, from the refetch/decode.
            self.pool.invalidate(page_id)
            data = self.pool.get(page_id)
            return decode(data, self.codec, self.page_size, page_id)
