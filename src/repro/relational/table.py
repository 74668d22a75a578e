"""Tables: heap storage + indexes + lightweight statistics.

A :class:`Table` owns a heap file of full tuples (tid-prefixed), the
secondary indexes the baseline approach builds, optional composite indexes
for the rank-mapping approach, and per-attribute value histograms used for
cost-based access-path selection — the same metadata a commercial engine
keeps in its catalog.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

from ..index.composite import CompositeIndex
from ..index.secondary import SecondaryIndex
from ..storage.buffer import BufferPool
from ..storage.heap import HeapFile, Rid
from ..storage.pages import RecordCodec
from .schema import Schema


class TableError(Exception):
    """Raised for table-level misuse (bad rows, unknown indexes)."""


def check_rows(schema: Schema, rows: Iterable[Sequence]) -> list[Sequence]:
    """``rows`` as a list, every row checked before any is written.

    A row must match the schema's width, and its ranking values must be
    finite numbers: a NaN score has no place in the ranking order, so the
    cube and a brute-force sort would answer it differently.  One bad row
    rejects the whole batch with :class:`TableError`.
    """
    rows = list(rows)
    width = len(schema)
    ranked = [schema.position(name) for name in schema.ranking_names]
    for row in rows:
        if len(row) != width:
            raise TableError(
                f"row of width {len(row)} does not fit schema of width {width}"
            )
        try:
            finite = all([math.isfinite(row[p]) for p in ranked])
        except TypeError:
            finite = False
        if not finite:
            raise TableError(f"ranking values must be finite numbers, got row {row!r}")
    return rows


class Table:
    """A relation stored on the shared device.

    Rows are plain tuples in schema attribute order; tids are assigned in
    load order.  Because the heap is append-only with fixed-length records,
    ``tid -> rid`` is arithmetic, giving the random-fetch path its realistic
    one-page cost without a separate tid index.
    """

    def __init__(self, name: str, schema: Schema, pool: BufferPool):
        self.name = name
        self.schema = schema
        self.pool = pool
        codec = RecordCodec(schema.record_format())
        self.heap = HeapFile(pool, codec)
        self.secondary_indexes: dict[str, SecondaryIndex] = {}
        self.composite_indexes: dict[tuple[str, ...], CompositeIndex] = {}
        self._value_counts: dict[str, Counter] = {
            name: Counter() for name in schema.selection_names
        }
        self._num_rows = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def insert_rows(self, rows: Iterable[Sequence]) -> None:
        """Bulk load rows (tuples in schema order); assigns tids.

        The whole batch is checked (:func:`check_rows`) before the heap or
        the statistics change, so a rejected batch leaves no trace.
        """
        rows = check_rows(self.schema, rows)
        counts = {
            name: Counter(int(row[self.schema.position(name)]) for row in rows)
            for name in self.schema.selection_names
        }
        first = self._num_rows
        # The initial load takes the one-pass sequential path (bulk_load on
        # an empty heap degrades to extend+seal otherwise) so build I/O is
        # metered as a sequential write stream.
        self.heap.bulk_load([(first + i, *row) for i, row in enumerate(rows)])
        for name, counted in counts.items():
            self._value_counts[name].update(counted)
        self._num_rows += len(rows)

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[tuple]:
        """Sequential scan of full records ``(tid, values...)``."""
        return self.heap.scan_records()

    def fetch_by_tid(self, tid: int) -> tuple:
        """Random fetch of the row with tuple id ``tid`` (without the tid)."""
        record = self.heap.fetch(self.rid_of(tid))
        if record[0] != tid:
            raise TableError(f"tid mismatch: wanted {tid}, page holds {record[0]}")
        return record[1:]

    def fetch_tid_range(self, start: int, stop: int) -> Iterator[tuple]:
        """Rows with tids ``start`` up to ``stop`` (without the tid), in
        tid order, each heap page loaded and decoded once — the append
        path's read of a freshly appended range."""
        if start < stop:
            self.rid_of(stop - 1)
        per_page = self.heap.records_per_page
        tid = start
        while tid < stop:
            rid = self.rid_of(tid)
            for record in self.heap.fetch_run(rid, min(per_page - rid[1], stop - tid)):
                if record[0] != tid:
                    raise TableError(
                        f"tid mismatch: wanted {tid}, page holds {record[0]}"
                    )
                yield record[1:]
                tid += 1

    def fetch_by_rid(self, rid: Rid) -> tuple:
        """Random fetch by rid, returning ``(tid, values...)``."""
        return self.heap.fetch(rid)

    def rid_of(self, tid: int) -> Rid:
        """Arithmetic tid -> rid mapping for the append-only heap."""
        if not 0 <= tid < self._num_rows:
            raise TableError(f"tid {tid} out of range [0, {self._num_rows})")
        per_page = self.heap.records_per_page
        return (tid // per_page, tid % per_page)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def create_secondary_index(self, attribute: str) -> SecondaryIndex:
        """Build a non-clustered index on one selection attribute."""
        attr = self.schema.attribute(attribute)
        if not attr.is_selection:
            raise TableError(f"cannot index ranking attribute {attribute!r}")
        if attribute in self.secondary_indexes:
            return self.secondary_indexes[attribute]
        pos = self.schema.position(attribute)
        index = SecondaryIndex(self.pool, attribute)
        index.build(
            (record[1 + pos], rid) for rid, record in self.heap.scan()
        )
        self.secondary_indexes[attribute] = index
        return index

    def create_composite_index(
        self,
        selection_dims: Sequence[str],
        ranking_dims: Sequence[str] | None = None,
    ) -> CompositeIndex:
        """Build the (selections..., rankings..., tid) clustered index."""
        if ranking_dims is None:
            ranking_dims = self.schema.ranking_names
        key = tuple(selection_dims) + tuple(ranking_dims)
        if key in self.composite_indexes:
            return self.composite_indexes[key]
        sel_pos = [self.schema.position(d) for d in selection_dims]
        rank_pos = [self.schema.position(d) for d in ranking_dims]
        index = CompositeIndex(self.pool, selection_dims, ranking_dims)
        index.build(
            (
                tuple(int(record[1 + p]) for p in sel_pos),
                tuple(float(record[1 + p]) for p in rank_pos),
                int(record[0]),
            )
            for record in self.heap.scan_records()
        )
        self.composite_indexes[key] = index
        return index

    def find_composite_index(
        self, query_dims: Sequence[str]
    ) -> CompositeIndex | None:
        """A composite index whose selection dims cover ``query_dims``, if any.

        Prefers the index whose *leading* dims match the most query dims —
        the factor behind the RM approach's sensitivity to dimension order
        (Figures 7, 9, 14).
        """
        wanted = set(query_dims)
        best = None
        best_prefix = -1
        for index in self.composite_indexes.values():
            if not wanted <= set(index.selection_dims):
                continue
            prefix = 0
            for dim in index.selection_dims:
                if dim in wanted:
                    prefix += 1
                else:
                    break
            if prefix > best_prefix:
                best, best_prefix = index, prefix
        return best

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def selectivity(self, attribute: str, value: int) -> float:
        """Fraction of rows with ``attribute == value`` (exact histogram)."""
        if attribute not in self._value_counts:
            raise TableError(f"no histogram for {attribute!r}")
        if not self._num_rows:
            return 0.0
        return self._value_counts[attribute][int(value)] / self._num_rows

    def value_count(self, attribute: str, value: int) -> int:
        if attribute not in self._value_counts:
            raise TableError(f"no histogram for {attribute!r}")
        return self._value_counts[attribute][int(value)]

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def __len__(self) -> int:
        return self._num_rows

    @property
    def data_size_in_bytes(self) -> int:
        return self.heap.size_in_bytes

    @property
    def index_size_in_bytes(self) -> int:
        secondary = sum(ix.size_in_bytes for ix in self.secondary_indexes.values())
        composite = sum(ix.size_in_bytes for ix in self.composite_indexes.values())
        return secondary + composite
