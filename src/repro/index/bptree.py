"""A paged B+-tree.

Every node occupies one page of the shared :class:`BlockDevice`, read and
written through the buffer pool, so index traversals are metered I/O just
like heap and cube accesses.  Keys are tuples of numbers (ints sort with
floats the way SQL composite keys do) and must be unique; callers that need
duplicates append a discriminator component (the composite index appends the
tid, the secondary index stores posting-list heads as values).  Values are
int64.

A node page is the common 8-byte page header (type: tree leaf / tree
internal, entry count, next-leaf id) followed by ``count`` fixed-width
entries ``(key components..., int64)``.  The trailing int64 is the value in
a leaf and the child page id in an internal node, whose entry ``i`` covers
the keys from its own key up to entry ``i + 1``'s; entry 0's key is never
compared.  The key format is learned from the first key stored — ``q`` for
an int component, ``d`` for a float one — and the node capacity is derived
from it: ``(page_size - header) // entry_size``.  Lookups and scans never
decode a node: they binary-search the page image with ``unpack_from``, and
inserts and splits splice entry bytes.

Supports point lookup, ordered range scan, single insert, and sorted bulk
load (the load path used when building indexes over a freshly generated
relation).
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

from ..storage.buffer import BufferPool
from ..storage.device import PageCorruptionError
from ..storage.pages import (
    NO_NEXT_PAGE,
    PAGE_HEADER,
    PAGE_TYPE_TREE_INTERNAL,
    PAGE_TYPE_TREE_LEAF,
    wrong_page_type,
)

Key = tuple
Value = int

_BASE = PAGE_HEADER.size
_INT64 = struct.Struct("<q")
_MIN_CAPACITY = 3  # a split must leave every internal node two children


class BPlusTreeError(Exception):
    """Raised for malformed tree operations (duplicate or unsorted keys, an
    entry outside the tree's format, a page too small for three entries)."""


class BPlusTree:
    """Unique-key B+-tree over paged storage.

    Parameters
    ----------
    pool:
        Buffer pool for all node I/O; its device's page size fixes how many
        entries a node holds.
    """

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._page_size = pool.device.page_size
        self._fmt: str | None = None  # key format, learned from the first key
        self._capacity = 0
        self._root_id = pool.device.allocate()
        self._put(self._root_id, PAGE_TYPE_TREE_LEAF, 0, NO_NEXT_PAGE, b"")
        self._height = 1
        self._num_keys = 0
        self._num_nodes = 1

    def __getstate__(self) -> dict:
        # struct.Struct objects cannot be pickled; the format string can
        state = self.__dict__.copy()
        state.pop("_key", None)
        state.pop("_entry", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if self._fmt is not None:
            self._bind(self._fmt)

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_keys

    @property
    def height(self) -> int:
        return self._height

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def size_in_bytes(self) -> int:
        return self._num_nodes * self._page_size

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: Key, default: Value | None = None) -> Value | None:
        """Point lookup."""
        if not self._num_keys:  # no key stored, no key format yet
            return default
        _page_id, data, count, _next = self._find_leaf(key)
        pos = self._bisect(data, 0, count, key, upper=False)
        if pos < count:
            offset = _BASE + pos * self._entry.size
            if self._key.unpack_from(data, offset) == key:
                return _INT64.unpack_from(data, offset + self._key.size)[0]
        return default

    def __contains__(self, key: Key) -> bool:
        return self.get(key) is not None

    def range_scan(
        self,
        lo: Key | None = None,
        hi: Key | None = None,
        include_hi: bool = False,
    ) -> Iterator[tuple[Key, Value]]:
        """Yield ``(key, value)`` in key order for keys in ``[lo, hi)``.

        ``lo=None`` starts at the smallest key; ``hi=None`` runs to the end;
        ``include_hi`` closes the upper bound.
        """
        if not self._num_keys:
            return
        page_id, data, count, next_leaf = self._find_leaf(lo)
        pos = 0 if lo is None else self._bisect(data, 0, count, lo, upper=False)
        size = self._entry.size
        while True:
            run = memoryview(data)[_BASE + pos * size:_BASE + count * size]
            for entry in self._entry.iter_unpack(run):
                key = entry[:-1]
                if hi is not None and (key > hi if include_hi else key >= hi):
                    return
                yield key, entry[-1]
            if next_leaf == NO_NEXT_PAGE:
                return
            page_id = self._linked(page_id, next_leaf)
            data, page_type, count, next_leaf = self._node(page_id)
            if page_type != PAGE_TYPE_TREE_LEAF:
                raise PageCorruptionError(
                    "leaf chain runs into an internal node", page_id=page_id
                )
            pos = 0

    def items(self) -> Iterator[tuple[Key, Value]]:
        """Full ordered scan."""
        return self.range_scan()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(self, key: Key, value: Value) -> None:
        """Insert one key; duplicate keys raise :class:`BPlusTreeError`."""
        key = tuple(key)
        self._check_key(key)
        split = self._insert_into(self._root_id, key, self._pack(key, value))
        if split is not None:
            sep_key, right_id = split
            body = self._pack(sep_key, self._root_id) + self._pack(sep_key, right_id)
            self._root_id = self._allocate(1)[0]
            self._put(self._root_id, PAGE_TYPE_TREE_INTERNAL, 2, NO_NEXT_PAGE, body)
            self._height += 1
        self._num_keys += 1

    def bulk_load(self, pairs: Iterable[tuple[Key, Value]]) -> None:
        """Replace the tree contents from *sorted*, unique ``(key, value)``.

        Builds full leaves left to right, then each internal level, the
        standard bottom-up bulk load; the top level lands on the root page
        the constructor wrote.  Raises on unsorted, duplicate or NaN input
        before any page is written.
        """
        pairs = [(tuple(key), value) for key, value in pairs]
        if not pairs:
            return
        if self._num_keys:
            raise BPlusTreeError("bulk_load requires an empty tree")
        keys = [key for key, _value in pairs]
        self._check_key(keys[0])
        if "d" in self._fmt:
            for key in keys:
                self._check_key(key)
        else:
            # an all-int format: _pack's "q" fields reject any float, NaN
            # included, so only the arity is left to check per key
            arity = len(self._fmt)
            for key in keys:
                if len(key) != arity:
                    self._check_key(key)
        if any(k1 >= k2 for k1, k2 in zip(keys, keys[1:])):
            raise BPlusTreeError("bulk_load input must be strictly sorted")
        packed = [self._pack(key, value) for key, value in pairs]

        page_type, height, capacity = PAGE_TYPE_TREE_LEAF, 1, self._capacity
        while True:
            starts = range(0, len(packed), capacity)
            ids = [self._root_id] if len(starts) == 1 else self._allocate(len(starts))
            if page_type == PAGE_TYPE_TREE_LEAF:
                links = ids[1:] + [NO_NEXT_PAGE]
            else:
                links = [NO_NEXT_PAGE] * len(ids)
            for page_id, start, link in zip(ids, starts, links):
                chunk = packed[start:start + capacity]
                self._put(page_id, page_type, len(chunk), link, b"".join(chunk))
            if len(ids) == 1:
                break
            keys = [keys[start] for start in starts]
            packed = [self._pack(key, page_id) for key, page_id in zip(keys, ids)]
            page_type, height = PAGE_TYPE_TREE_INTERNAL, height + 1
        self._height = height
        self._num_keys = len(pairs)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _insert_into(
        self, page_id: int, key: Key, packed: bytes
    ) -> tuple[Key, int] | None:
        """Recursive insert; returns ``(separator, new right page)`` on split."""
        data, page_type, count, next_leaf = self._node(page_id)
        size = self._entry.size
        if page_type == PAGE_TYPE_TREE_LEAF:
            pos = self._bisect(data, 0, count, key, upper=False)
            if pos < count and self._key.unpack_from(data, _BASE + pos * size) == key:
                raise BPlusTreeError(f"duplicate key {key!r}")
        else:
            pos = self._bisect(data, 1, count, key, upper=True)
            split = self._insert_into(self._child(page_id, data, pos - 1), key, packed)
            if split is None:
                return None
            packed = self._pack(*split)
        cut = _BASE + pos * size
        body = data[_BASE:cut] + packed + data[cut:_BASE + count * size]
        count += 1
        if count <= self._capacity:
            self._put(page_id, page_type, count, next_leaf, body)
            return None
        # Both node kinds split the same way: the right half's first key
        # moves up as the separator (and stays behind, uncompared, as an
        # internal right half's entry 0).
        mid = count // 2
        right_id = self._allocate(1)[0]
        self._put(right_id, page_type, count - mid, next_leaf, body[mid * size:])
        if page_type == PAGE_TYPE_TREE_LEAF:
            next_leaf = right_id
        self._put(page_id, page_type, mid, next_leaf, body[:mid * size])
        return self._key.unpack_from(body, mid * size), right_id

    def _find_leaf(self, key: Key | None) -> tuple[int, bytes, int, int]:
        """``(page id, image, entry count, next leaf)`` of the leaf that
        holds ``key`` if any leaf does (the leftmost leaf for ``None``)."""
        page_id = self._root_id
        for _level in range(self._height):
            data, page_type, count, next_leaf = self._node(page_id)
            if page_type == PAGE_TYPE_TREE_LEAF:
                return page_id, data, count, next_leaf
            pos = 1 if key is None else self._bisect(data, 1, count, key, upper=True)
            page_id = self._child(page_id, data, pos - 1)
        raise PageCorruptionError(
            f"no leaf within the tree's height {self._height}", page_id=page_id
        )

    def _bisect(self, data: bytes, lo: int, hi: int, key: Key, upper: bool) -> int:
        """First entry in ``[lo, hi)`` of a node image whose key is
        ``> key`` (``upper``) or ``>= key``; ``hi`` if there is none."""
        key_at, size = self._key.unpack_from, self._entry.size
        while lo < hi:
            mid = (lo + hi) // 2
            probe = key_at(data, _BASE + mid * size)
            if (probe <= key) if upper else (probe < key):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _node(self, page_id: int) -> tuple[bytes, int, int, int]:
        """Validated ``(image, page type, entry count, next leaf)``."""
        data = self.pool.get(page_id)
        page_type, count, next_leaf = PAGE_HEADER.unpack_from(data)
        if page_type != PAGE_TYPE_TREE_LEAF and page_type != PAGE_TYPE_TREE_INTERNAL:
            raise wrong_page_type(page_type, "tree", page_id)
        if count > self._capacity or (count == 0 and page_type != PAGE_TYPE_TREE_LEAF):
            raise PageCorruptionError(
                f"entry count {count} is impossible for a node of capacity "
                f"{self._capacity} (damaged header)",
                page_id=page_id,
            )
        return data, page_type, count, next_leaf

    def _child(self, page_id: int, data: bytes, pos: int) -> int:
        """Child page id held by entry ``pos`` of an internal node image."""
        offset = _BASE + pos * self._entry.size + self._key.size
        return self._linked(page_id, _INT64.unpack_from(data, offset)[0])

    def _linked(self, page_id: int, target: int) -> int:
        """``target`` (a child or next-leaf id read from ``page_id``),
        checked to name a page of the device."""
        if not 0 <= target < self.pool.device.num_pages:
            raise PageCorruptionError(
                f"node links to page {target}, past the device's "
                f"{self.pool.device.num_pages} pages (damaged node)",
                page_id=page_id,
            )
        return target

    def _allocate(self, count: int) -> list[int]:
        self._num_nodes += count
        return self.pool.device.allocate_many(count)

    def _put(
        self, page_id: int, page_type: int, count: int, next_leaf: int, body: bytes
    ) -> None:
        self.pool.put(page_id, PAGE_HEADER.pack(page_type, count, next_leaf) + body)

    def _check_key(self, key: Key) -> None:
        """Learn the format from the first key; reject what it cannot order."""
        if self._fmt is None:
            fmt = "".join("d" if isinstance(part, float) else "q" for part in key)
            capacity = (self._page_size - _BASE) // struct.calcsize("<" + fmt + "q")
            if capacity < _MIN_CAPACITY:
                raise BPlusTreeError(
                    f"a {self._page_size}-byte page holds {capacity} entries of "
                    f"{len(key)}-component keys; a node needs {_MIN_CAPACITY}"
                )
            self._capacity = min(capacity, 0xFFFF)  # the header counts in 16 bits
            self._bind(fmt)
        if len(key) != len(self._fmt):
            raise BPlusTreeError(
                f"key {key!r} has {len(key)} components, "
                f"the tree's keys have {len(self._fmt)}"
            )
        if any(part != part for part in key):
            raise BPlusTreeError(f"key {key!r} has a NaN component, which has no order")

    def _bind(self, fmt: str) -> None:
        self._fmt = fmt
        self._key = struct.Struct("<" + fmt)
        self._entry = struct.Struct("<" + fmt + "q")

    def _pack(self, key: Key, value: int) -> bytes:
        try:
            return self._entry.pack(*key, value)
        except (struct.error, OverflowError) as exc:
            raise BPlusTreeError(
                f"entry {key!r} -> {value!r} does not fit the tree's "
                f"'{self._fmt}' -> int64 format: {exc}"
            ) from None
