"""Compressed cuboid cell storage (Section 6's compression opportunity).

Cuboid cells hold ``(tid, bid)`` pairs; tids within a cell are stored
sorted, so gap + varint coding shrinks them dramatically, and bids —
small ints repeated across a pseudo block's few base blocks — also encode
in one or two bytes.  :class:`CompressedChainStore` exposes the same
build/get interface as :class:`~repro.core.chains.ChainStore` and plugs
into :class:`~repro.core.cuboid.RankingCuboid` via ``compress=True`` on
the cube builder.

The paper notes "a large portion of the space is used to store the cell
identifiers. We believe that the space requirement can be further
reduced"; this module quantifies that reduction (see the compression
ablation bench).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..storage.blobs import BlobStore
from ..storage.buffer import BufferPool
from ..storage.varint import (
    decode_uvarint,
    delta_decode_sorted,
    delta_encode_sorted,
    encode_uvarint,
)


def encode_tid_list(records: Sequence[tuple[int, int]]) -> bytes:
    """Compress ``(tid, bid)`` pairs: sorted-gap tids + varint bids."""
    ordered = sorted(records)
    blob = bytearray(delta_encode_sorted([tid for tid, _bid in ordered]))
    for _tid, bid in ordered:
        encode_uvarint(bid, blob)
    return bytes(blob)


def decode_tid_list(blob: bytes) -> list[tuple[int, int]]:
    """Inverse of :func:`encode_tid_list`."""
    tids, offset = delta_decode_sorted(blob)
    records = []
    for tid in tids:
        bid, offset = decode_uvarint(blob, offset)
        records.append((tid, bid))
    return records


class CompressedChainStore:
    """Drop-in ChainStore replacement storing compressed cell payloads."""

    def __init__(self, pool: BufferPool, codec=None):
        # ``codec`` is accepted (and ignored) for interface parity with
        # ChainStore; the compressed layout fixes its own record format.
        self.pool = pool
        self._blobs = BlobStore(pool)
        self._num_records = 0
        #: record count per stored key (see ``ChainStore.counts``)
        self.counts: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    def build(self, groups: Iterable[tuple[tuple, Sequence[tuple]]]) -> None:
        encoded = []
        for key, records in groups:
            records = [(int(tid), int(bid)) for tid, bid in records]
            if not records:
                continue
            key = tuple(key)
            encoded.append((key, encode_tid_list(records)))
            self.counts[key] = len(records)
            self._num_records += len(records)
        self._blobs.build(encoded)

    def get(self, key: tuple) -> list[tuple[int, int]]:
        blob = self._blobs.get(tuple(key))
        if blob is None:
            return []
        return decode_tid_list(blob)

    def __contains__(self, key: tuple) -> bool:
        return tuple(key) in self._blobs

    def items(self) -> Iterable[tuple[tuple, list[tuple[int, int]]]]:
        """Iterate ``(key, records)`` in key order (maintenance scans)."""
        for key, _locator in self._blobs.directory.items():
            yield key, self.get(key)

    def runs(self) -> Iterable[tuple[tuple, list[tuple[int, int]]]]:
        """The stored groups as :meth:`splice` takes them: decoded, since a
        gap-coded blob cannot be extended without re-encoding it."""
        return self.items()

    def splice(
        self,
        runs: Iterable[tuple[tuple, list[tuple[int, int]]]],
        additions: Mapping[tuple, Sequence[tuple]],
    ) -> None:
        """:meth:`ChainStore.splice`'s contract by decode plus rebuild."""
        groups = {key: list(records) for key, records in runs}
        for key, records in additions.items():
            groups.setdefault(tuple(key), []).extend(records)
        self.build(groups.items())

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return self._num_records

    @property
    def num_chain_pages(self) -> int:
        return self._blobs.num_pages

    @property
    def directory(self):
        return self._blobs.directory

    @property
    def size_in_bytes(self) -> int:
        return self._blobs.size_in_bytes
