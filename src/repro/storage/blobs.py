"""Packed variable-length blob storage with a B+-tree directory.

The variable-length counterpart of :class:`~repro.core.chains.ChainStore`:
keyed byte blobs packed back to back into pages, located by
``(page_index, offset, length)`` packed into a single directory value.
A blob that does not fit in the current page's free space starts on a
fresh page; blobs larger than a page span consecutive pages.
"""

from __future__ import annotations

from typing import Iterable

from ..index.bptree import BPlusTree
from .buffer import BufferPool
from .device import PageCorruptionError, StorageError
from .pages import BytesPage


class BlobStore:
    """Build-once keyed blob storage over paged memory."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self.page_size = pool.device.page_size
        self.directory = BPlusTree(pool)
        self._page_ids: list[int] = []
        self._payload_capacity = BytesPage(self.page_size).max_payload
        self._built = False
        self._num_blobs = 0

    # ------------------------------------------------------------------
    def build(self, blobs: Iterable[tuple[tuple, bytes]]) -> None:
        """Bulk build from ``(key, blob)`` pairs (keys must be unique)."""
        if self._built:
            raise StorageError("BlobStore.build may only be called once")
        self._built = True
        capacity = self._payload_capacity
        ordered = sorted(
            ((tuple(key), bytes(blob)) for key, blob in blobs),
            key=lambda pair: pair[0],
        )
        pages: list[bytearray] = [bytearray()]
        directory_pairs = []
        for key, blob in ordered:
            if not blob:
                continue
            free = capacity - len(pages[-1])
            if len(blob) > free and len(blob) <= capacity:
                pages.append(bytearray())
            page_index = len(pages) - 1
            offset = len(pages[-1])
            directory_pairs.append(
                (key, _pack_locator(page_index, offset, len(blob)))
            )
            remaining = memoryview(blob)
            while remaining:
                free = capacity - len(pages[-1])
                if free == 0:
                    pages.append(bytearray())
                    free = capacity
                pages[-1].extend(remaining[:free])
                remaining = remaining[free:]
            self._num_blobs += 1

        if pages == [bytearray()]:
            pages = []
        self._page_ids = self.pool.device.allocate_many(len(pages))
        for page_id, payload in zip(self._page_ids, pages):
            self.pool.put(
                page_id, BytesPage(self.page_size, bytes(payload)).to_bytes()
            )
        self.directory.bulk_load(directory_pairs)

    def get(self, key: tuple) -> bytes | None:
        """The blob under ``key``, or ``None`` if absent."""
        locator = self.directory.get(tuple(key))
        if locator is None:
            return None
        page_index, offset, length = _unpack_locator(locator)
        chunks = []
        while length > 0:
            payload = self._load_payload(page_index)
            take = payload[offset:offset + length]
            if not take:
                raise PageCorruptionError(
                    f"blob {key!r} expects {length} more byte(s) at page "
                    f"index {page_index} offset {offset}, but the page "
                    "payload ends early (damaged page or directory)",
                    page_id=self._page_ids[page_index],
                )
            chunks.append(take)
            length -= len(take)
            page_index += 1
            offset = 0
        return b"".join(chunks)

    def _load_payload(self, page_index: int) -> bytes:
        if not 0 <= page_index < len(self._page_ids):
            raise StorageError(f"blob store has no page index {page_index}")
        page_id = self._page_ids[page_index]
        try:
            return BytesPage.from_bytes(
                self.pool.get(page_id), self.page_size, page_id
            ).payload
        except PageCorruptionError:
            # quarantine-and-refetch, same contract as HeapFile._load_page
            self.pool.invalidate(page_id)
            return BytesPage.from_bytes(
                self.pool.get(page_id), self.page_size, page_id
            ).payload

    def __contains__(self, key: tuple) -> bool:
        return self.directory.get(tuple(key)) is not None

    # ------------------------------------------------------------------
    @property
    def num_blobs(self) -> int:
        return self._num_blobs

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def size_in_bytes(self) -> int:
        return len(self._page_ids) * self.page_size + self.directory.size_in_bytes


_OFFSET_BITS = 13   # offsets within a page (page sizes up to 8 KiB)
_LENGTH_BITS = 27   # blob lengths up to 128 MiB


def _pack_locator(page_index: int, offset: int, length: int) -> int:
    if offset >= (1 << _OFFSET_BITS) or length >= (1 << _LENGTH_BITS):
        raise StorageError(f"locator out of range: offset={offset} length={length}")
    return (
        (page_index << (_OFFSET_BITS + _LENGTH_BITS))
        | (offset << _LENGTH_BITS)
        | length
    )


def _unpack_locator(locator: int) -> tuple[int, int, int]:
    length = locator & ((1 << _LENGTH_BITS) - 1)
    offset = (locator >> _LENGTH_BITS) & ((1 << _OFFSET_BITS) - 1)
    page_index = locator >> (_OFFSET_BITS + _LENGTH_BITS)
    return page_index, offset, length
