"""The base block table ``T`` of the ranking cube triple (Section 3.1.3).

Holds, per base block id, the tuples' real values on all ranking
dimensions: the target of the ``get_base_block`` access method.  The
original relation is decomposed into this table plus the selection
sub-database that the cuboids aggregate (Table 2 of the paper).

``get_base_block`` takes the evaluate step's qualifying tids and decodes
only those records from the block's pages.
"""

from __future__ import annotations

import itertools
import numpy as np

from ..storage.buffer import BufferPool
from ..storage.pages import RecordCodec
from .blocks import BlockGrid
from .chains import ChainStore

#: Process-wide monotonic identity for base tables (see ``uid`` below).
_UIDS = itertools.count()


class BaseBlockTable:
    """bid -> [(tid, ranking values...)] storage with block-level access."""

    def __init__(self, pool: BufferPool, grid: BlockGrid):
        self.pool = pool
        self.grid = grid
        codec = RecordCodec("q" + "d" * grid.num_dims)
        self._store = ChainStore(pool, codec)
        self.access_count = 0
        #: Never-reused identity token.  The serving layer's block cache
        #: keys entries by ``(uid, bid)``, so blocks decoded from a
        #: compacted-away table generation can never satisfy a lookup
        #: against its replacement (``id()`` could be recycled by the
        #: allocator; this cannot).
        self.uid = next(_UIDS)
        self._tuple_array = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_tuple_array"]  # derived from the counts
        return state

    def __setstate__(self, state: dict) -> None:
        # A pickled uid names a table in the process that issued it; a
        # loaded copy draws a fresh one, or it could collide with a table
        # this process builds later (each process counts from 0).
        self.__dict__.update(state)
        self.uid = next(_UIDS)
        self._tuple_array = None

    @classmethod
    def from_runs(
        cls,
        pool: BufferPool,
        grid: BlockGrid,
        runs,
    ) -> "BaseBlockTable":
        """Materialize from encoded ``((bid,), records, count)`` runs in
        bid order (the base runs of :func:`~repro.core.cube.group_rows`)."""
        table = cls(pool, grid)
        table._store.write(runs)
        return table

    def runs(self):
        """The stored blocks as encoded runs, for :meth:`spliced`."""
        return self._store.runs()

    def spliced(self, runs, additions) -> "BaseBlockTable":
        """A new table on fresh pages: ``runs`` (this table's, from
        :meth:`runs`) with each block's encoded ``additions`` run appended
        — the image :meth:`from_runs` writes for the merged blocks,
        without decoding the stored records."""
        table = type(self)(self.pool, self.grid)
        table._store.splice(runs, additions)
        return table

    # ------------------------------------------------------------------
    def blocks(self):
        """Iterate ``(bid, records)`` in key order (maintenance scans).

        Records carry the stored shape ``(tid, ranking values...)``;
        unmetered for :attr:`access_count` — this is a rebuild scan, not
        a query access.
        """
        for key, records in self._store.items():
            yield int(key[0]), [tuple(record) for record in records]

    # ------------------------------------------------------------------
    def get_base_block(
        self, bid: int, tids=None
    ) -> list[tuple[int, tuple[float, ...]]]:
        """Block-level access: the ``(tid, values)`` stored under ``bid``.

        This is the paper's second data access method; one call reads the
        block's full page chain.  ``tids`` is the evaluate step's
        qualifying set: given, only those tuples are decoded and returned
        (same pages, same order); ``None`` returns every tuple.
        """
        self.access_count += 1
        return [
            (record[0], record[1:]) for record in self._store.get((bid,), tids)
        ]

    @property
    def num_tuples(self) -> int:
        return self._store.num_records

    @property
    def counts(self) -> dict[tuple, int]:
        """Tuples per stored block, keyed ``(bid,)``; in memory, no I/O."""
        return self._store.counts

    @property
    def tuple_array(self) -> np.ndarray:
        """:attr:`counts` over every bid of the grid (0 where none), as
        floats; computed on first use (the table is build-once)."""
        if self._tuple_array is None:
            tuples = np.zeros(self.grid.num_blocks)
            tuples[[bid for (bid,) in self.counts]] = list(self.counts.values())
            self._tuple_array = tuples
        return self._tuple_array

    @property
    def size_in_bytes(self) -> int:
        return self._store.size_in_bytes

    @property
    def dims(self) -> tuple[str, ...]:
        return self.grid.dims
