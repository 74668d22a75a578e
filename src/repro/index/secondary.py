"""Non-clustered secondary index.

Models the "non-clustered index on each selection dimension" the paper
builds for its Baseline configuration: a B+-tree mapping each attribute
value to the head of a paged *posting list* of rids.  Looking a value up
costs the tree descent plus one sequential chain walk; the rids then require
random heap fetches, which is exactly the access pattern whose cost the
ranking cube is designed to avoid.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..storage.buffer import BufferPool
from ..storage.heap import Rid
from ..storage.pages import RecordCodec, RecordPage
from .bptree import BPlusTree

_POSTING_CODEC = RecordCodec("ii")  # (page_index, slot)


class SecondaryIndex:
    """Value -> rid-list index over one selection attribute.

    Parameters
    ----------
    pool:
        Buffer pool of the shared device.
    attribute:
        Indexed attribute name (metadata only; the caller extracts values).
    """

    def __init__(self, pool: BufferPool, attribute: str):
        self.pool = pool
        self.attribute = attribute
        self._tree = BPlusTree(pool)
        self._chain_pages = 0
        self._num_entries = 0

    # ------------------------------------------------------------------
    def build(self, entries: Iterable[tuple[int, Rid]]) -> None:
        """Bulk build from ``(value, rid)`` pairs (any order)."""
        by_value: dict[int, list[Rid]] = {}
        for value, rid in entries:
            by_value.setdefault(int(value), []).append(rid)
        pairs = []
        for value in sorted(by_value):
            head = self._write_chain(by_value[value])
            pairs.append(((value,), head))
            self._num_entries += len(by_value[value])
        self._tree.bulk_load(pairs)

    def lookup(self, value: int) -> list[Rid]:
        """All rids whose indexed attribute equals ``value``."""
        head = self._tree.get((int(value),))
        if head is None:
            return []
        return self._read_chain(head)

    def count(self, value: int) -> int:
        """Posting-list length, reading the chain (no separate stats here;
        see :class:`~repro.relational.table.Table` for cached selectivity)."""
        return len(self.lookup(value))

    # ------------------------------------------------------------------
    @property
    def size_in_bytes(self) -> int:
        page_size = self.pool.device.page_size
        return self._tree.size_in_bytes + self._chain_pages * page_size

    def __len__(self) -> int:
        return self._num_entries

    # ------------------------------------------------------------------
    def _write_chain(self, rids: Sequence[Rid]) -> int:
        """Store a posting list as a linked chain of record pages."""
        page_size = self.pool.device.page_size
        capacity = _POSTING_CODEC.capacity(page_size)
        page_ids = self.pool.device.allocate_many(
            max(1, -(-len(rids) // capacity))
        )
        self._chain_pages += len(page_ids)
        for chunk_no, page_id in enumerate(page_ids):
            page = RecordPage(_POSTING_CODEC, page_size)
            start = chunk_no * capacity
            page.extend(rids[start:start + capacity])
            if chunk_no + 1 < len(page_ids):
                page.next_page_id = page_ids[chunk_no + 1]
            self.pool.put(page_id, page.to_bytes())
        return page_ids[0]

    def _read_chain(self, head: int) -> list[Rid]:
        page_size = self.pool.device.page_size
        rids: list[Rid] = []
        page_id: int | None = head
        while page_id is not None:
            page = RecordPage.from_bytes(
                self.pool.get(page_id), _POSTING_CODEC, page_size
            )
            rids.extend((int(p), int(s)) for p, s in page.records)
            page_id = page.next_page_id
        return rids
