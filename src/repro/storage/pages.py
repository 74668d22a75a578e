"""Byte-level page layouts.

Two layouts are provided here:

* :class:`RecordPage` — fixed-length records packed with :mod:`struct`.
  Used by heap files, the base block table, and cuboid cell storage, where
  every record of a given table has the same shape.
* :class:`BytesPage` — a length-prefixed blob page used by the blob store,
  whose payloads are variable length.

A third, the B+-tree's node page (:mod:`repro.index.bptree`), is laid out
by the tree itself under the two ``PAGE_TYPE_TREE_*`` tags.  All layouts
begin with the same small fixed header so a raw page image is
self-describing enough for integrity checks.
"""

from __future__ import annotations

import struct
from itertools import compress, islice
from typing import Iterable, Sequence

import numpy as np

from .device import PageCorruptionError, StorageError

#: Page-type tags written into the header byte.
PAGE_TYPE_RECORD = 1
PAGE_TYPE_BYTES = 2
PAGE_TYPE_TREE_LEAF = 3
PAGE_TYPE_TREE_INTERNAL = 4

_KNOWN_PAGE_TYPES = (
    PAGE_TYPE_RECORD, PAGE_TYPE_BYTES, PAGE_TYPE_TREE_LEAF, PAGE_TYPE_TREE_INTERNAL
)

_HEADER = struct.Struct("<BxHI")  # type, pad, record/entry count, next page id

#: The common header, for layouts defined outside this module (tree nodes).
PAGE_HEADER = _HEADER


NO_NEXT_PAGE = 0xFFFFFFFF


class PageFormatError(StorageError):
    """Raised when a page image does not match the expected layout.

    Distinct from :class:`~repro.storage.device.PageCorruptionError`: a
    format error means the caller decoded a *valid* page with the wrong
    codec or layout (a bug), while corruption means the image itself is
    structurally impossible (bit rot, torn write) — decoders raise the
    latter so damaged pages are detectably invalid, never silently wrong.
    """


def wrong_page_type(page_type: int, expected: str, page_id: int | None) -> StorageError:
    """The error for a page whose type byte is not the decoder's own:
    corruption when no layout writes that byte, a format error when
    another layout does."""
    if page_type not in _KNOWN_PAGE_TYPES:
        return PageCorruptionError(
            f"unknown page type {page_type} (damaged header)", page_id=page_id
        )
    return PageFormatError(f"expected {expected} page, found type {page_type}")


class RecordCodec:
    """Packs/unpacks homogeneous records using a struct format string.

    The format uses :mod:`struct` notation without the byte-order prefix,
    e.g. ``"qdd"`` for ``(tid: int64, n1: float64, n2: float64)``.
    """

    def __init__(self, fmt: str):
        self._struct = struct.Struct("<" + fmt)
        self.fmt = fmt
        # one record's leading int64 key, the rest skipped as padding (for
        # the formats that start with ``q``)
        self._key_field = f"q{self._struct.size - 8}x"

    def __getstate__(self) -> str:
        # struct.Struct objects cannot be pickled; the format string can
        return self.fmt

    def __setstate__(self, fmt: str) -> None:
        self.__init__(fmt)

    @property
    def record_size(self) -> int:
        return self._struct.size

    @property
    def dtype(self) -> np.dtype:
        """The packed little-endian NumPy dtype of :meth:`pack`'s bytes,
        one field ``f0, f1, ...`` per format character (``q``, ``i`` and
        ``d``, the ones in use, have struct's sizes in NumPy too)."""
        return np.dtype([(f"f{i}", "<" + char) for i, char in enumerate(self.fmt)])

    def capacity(self, page_size: int) -> int:
        """How many records fit in one page of ``page_size`` bytes."""
        usable = page_size - _HEADER.size
        cap = usable // self.record_size
        if cap <= 0:
            raise PageFormatError(
                f"record of {self.record_size} bytes does not fit in a "
                f"{page_size}-byte page"
            )
        return cap

    def pack(self, records: Sequence[tuple]) -> bytes:
        return b"".join(self._struct.pack(*record) for record in records)

    def unpack(
        self, data: bytes, count: int, offset: int = 0, keys=None
    ) -> list[tuple]:
        """``count`` consecutive records starting at byte ``offset``.

        With ``keys`` (a set of ints), only the records whose leading
        ``q`` field is a member are returned, in stored order: the
        ``count`` keys are read in one ``unpack_from`` that skips every
        other field, and only the members are decoded whole.
        """
        size = self.record_size
        unpack_from = self._struct.unpack_from
        if keys is None:
            return [unpack_from(data, offset + i * size) for i in range(count)]
        leading = struct.unpack_from("<" + self._key_field * count, data, offset)
        return [
            unpack_from(data, offset + i * size)
            for i in compress(range(count), map(keys.__contains__, leading))
        ]


class RecordPage:
    """A fixed-length-record page bound to a :class:`RecordCodec`.

    Pages form singly linked chains via ``next_page_id`` so multi-page
    structures (heap files, cell overflow chains) can be walked without an
    external directory.
    """

    def __init__(self, codec: RecordCodec, page_size: int):
        self.codec = codec
        self.page_size = page_size
        self.records: list[tuple] = []
        self.next_page_id: int | None = None

    @property
    def capacity(self) -> int:
        return self.codec.capacity(self.page_size)

    @property
    def is_full(self) -> bool:
        return len(self.records) >= self.capacity

    def append(self, record: tuple) -> int:
        """Append one record, returning its slot number."""
        if self.is_full:
            raise PageFormatError("page is full")
        self.records.append(tuple(record))
        return len(self.records) - 1

    def extend(self, records: Iterable[tuple]) -> None:
        """Append records in order; the first one past capacity raises
        ``PageFormatError("page is full")`` with its predecessors kept,
        exactly as repeated :meth:`append` calls would."""
        free = max(self.capacity - len(self.records), 0)
        remaining = iter(records)
        self.records.extend(map(tuple, islice(remaining, free)))
        for _overflow in remaining:
            raise PageFormatError("page is full")

    def to_bytes(self) -> bytes:
        image = self.image(
            self.codec.pack(self.records), len(self.records), self.next_page_id
        )
        if len(image) > self.page_size:
            raise PageFormatError("serialized page exceeds page size")
        return image

    @staticmethod
    def image(body: bytes, count: int, next_page_id: int | None = None) -> bytes:
        """A page image: the header, then ``body``, ``count`` packed records."""
        next_encoded = NO_NEXT_PAGE if next_page_id is None else next_page_id
        return _HEADER.pack(PAGE_TYPE_RECORD, count, next_encoded) + body

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        codec: RecordCodec,
        page_size: int,
        page_id: int | None = None,
    ) -> "RecordPage":
        count, next_encoded = _record_header(data, codec, page_size, page_id)
        page = cls(codec, page_size)
        page.records = codec.unpack(data, count, _HEADER.size)
        page.next_page_id = None if next_encoded == NO_NEXT_PAGE else next_encoded
        return page

    @staticmethod
    def read_slice(
        data: bytes,
        codec: RecordCodec,
        page_size: int,
        slot: int,
        count: int,
        page_id: int | None = None,
        keys=None,
    ) -> list[tuple]:
        """Records ``[slot, slot + count)`` of a page image —
        ``from_bytes(...).records[slot:slot + count]`` with the same header
        checks but only that slice decoded.  A page holding fewer than
        ``slot + count`` records raises :class:`PageCorruptionError`
        (short page).  With ``keys``, only the slice's records whose
        leading field is in it (see :meth:`RecordCodec.unpack`)."""
        stored, _next = _record_header(data, codec, page_size, page_id)
        check_stored(stored, slot, count, page_id)
        offset = _HEADER.size + slot * codec.record_size
        return codec.unpack(data, count, offset, keys)

    @staticmethod
    def body(
        data: bytes, codec: RecordCodec, page_size: int, page_id: int | None = None
    ) -> tuple[memoryview, int]:
        """The packed records of a page image, undecoded, and their count
        (the header checked as :meth:`read_slice` checks it)."""
        stored, _next = _record_header(data, codec, page_size, page_id)
        start = _HEADER.size
        return memoryview(data)[start:start + stored * codec.record_size], stored


def check_stored(stored: int, slot: int, count: int, page_id: int | None) -> None:
    """Raise :class:`PageCorruptionError` unless a page holding ``stored``
    records holds all of ``[slot, slot + count)`` (a short page)."""
    if stored < slot + count:
        raise PageCorruptionError(
            f"record page holds {stored} records, the run needs "
            f"{slot + count} (short page)",
            page_id=page_id,
        )


def _record_header(
    data: bytes, codec: RecordCodec, page_size: int, page_id: int | None
) -> tuple[int, int]:
    """Validated ``(record count, encoded next page)`` of a record page."""
    page_type, count, next_encoded = _HEADER.unpack_from(data)
    if page_type != PAGE_TYPE_RECORD:
        raise wrong_page_type(page_type, "record", page_id)
    capacity = codec.capacity(page_size)
    if count > capacity:
        raise PageCorruptionError(
            f"record count {count} exceeds page capacity {capacity} "
            "(damaged header)",
            page_id=page_id,
        )
    return count, next_encoded


class BytesPage:
    """A page holding a single variable-length payload (a run of blob bytes)."""

    def __init__(self, page_size: int, payload: bytes = b""):
        self.page_size = page_size
        self.payload = payload

    @property
    def max_payload(self) -> int:
        return self.page_size - _HEADER.size - 4

    def to_bytes(self) -> bytes:
        if len(self.payload) > self.max_payload:
            raise PageFormatError(
                f"payload of {len(self.payload)} bytes exceeds max {self.max_payload}"
            )
        header = _HEADER.pack(PAGE_TYPE_BYTES, 0, NO_NEXT_PAGE)
        return header + struct.pack("<I", len(self.payload)) + self.payload

    @classmethod
    def from_bytes(
        cls, data: bytes, page_size: int, page_id: int | None = None
    ) -> "BytesPage":
        page_type, _count, _next = _HEADER.unpack_from(data)
        if page_type != PAGE_TYPE_BYTES:
            raise wrong_page_type(page_type, "bytes", page_id)
        (length,) = struct.unpack_from("<I", data, _HEADER.size)
        start = _HEADER.size + 4
        if length > len(data) - start:
            raise PageCorruptionError(
                f"payload length {length} exceeds the {len(data) - start} bytes "
                "available in the page (damaged header)",
                page_id=page_id,
            )
        return cls(page_size, data[start:start + length])


def page_header_size() -> int:
    """Size in bytes of the common page header (exposed for space math)."""
    return _HEADER.size
