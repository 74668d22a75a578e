"""Ranking cuboids (Section 3.1.3).

A cuboid is named by its selection dimensions (the ranking dimensions are
fixed by the cube's base block table): cuboid ``A1 A2 | N1 N2`` organizes
``(tid, bid)`` pairs by cell key ``(a1, a2, pid)``, where *pid* is the
pseudo block id produced by scaling the base grid so each cell fills a
physical block.

The cuboid exposes the paper's first data access method,
``get_pseudo_block``: one call returns every ``(tid, bid)`` in a cell, and
the query executor buffers the result so later requests for sibling bids of
the same pseudo block cost no further I/O.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..storage.buffer import BufferPool
from ..storage.pages import RecordCodec
from .blocks import BlockGrid
from .chains import ChainStore
from .pseudo import PseudoBlockMap, scale_factor


class CuboidError(Exception):
    """Raised for cuboid construction/access misuse."""


#: Pseudo blocks at or above this many pairs decode through the batched
#: group-by in :meth:`RankingCuboid.decode_pseudo_block`; below it the
#: plain dict loop wins (NumPy's per-call overhead dominates tiny cells).
_VECTOR_DECODE_THRESHOLD = 64


class RankingCuboid:
    """One materialized cuboid of a ranking cube.

    Parameters
    ----------
    pool:
        Buffer pool of the shared device.
    dims:
        Selection dimensions of this cuboid, in key order.
    cardinalities:
        Matching domain sizes (drive the pseudo-block scale factor).
    grid:
        The base block grid shared with the cube's base block table.
    """

    def __init__(
        self,
        pool: BufferPool,
        dims: Sequence[str],
        cardinalities: Sequence[int],
        grid: BlockGrid,
        scale_override: int | None = None,
        epoch: int = 0,
    ):
        if len(dims) != len(cardinalities):
            raise CuboidError("dims and cardinalities must align")
        if not dims:
            raise CuboidError(
                "a cuboid needs at least one selection dimension; apex "
                "queries read the base block table directly"
            )
        self.dims = tuple(dims)
        self.cardinalities = tuple(int(c) for c in cardinalities)
        self.grid = grid
        sf = (
            scale_factor(self.cardinalities, grid.num_dims)
            if scale_override is None
            else scale_override
        )
        self.pseudo = PseudoBlockMap(grid, sf)
        self._store = ChainStore(pool, RecordCodec("qi"))  # (tid, bid)
        self.access_count = 0
        #: maintenance generation: bumped each time compaction replaces
        #: this cuboid with a rebuilt one.  Part of serving-cache keys, so
        #: entries cached against an old generation can never satisfy a
        #: lookup against the new one — even if an invalidation
        #: notification is lost to a crash.
        self.epoch = int(epoch)

    # ------------------------------------------------------------------
    @classmethod
    def from_runs(
        cls,
        pool: BufferPool,
        dims: Sequence[str],
        cardinalities: Sequence[int],
        grid: BlockGrid,
        runs,
        scale_override: int | None = None,
        epoch: int = 0,
    ) -> "RankingCuboid":
        """Materialize from encoded runs in cell order (one cuboid's runs
        from :func:`~repro.core.cube.group_rows`): keys ``(sel values...,
        pid)``, each run the cell's ``(tid, bid)`` records in scan order.
        ``scale_override`` replaces the computed pseudo-block scale
        factor (``1`` disables pseudo blocking entirely — the ablation of
        Section 3.1.3's design choice).
        """
        cuboid = cls(
            pool, dims, cardinalities, grid,
            scale_override=scale_override, epoch=epoch,
        )
        cuboid._store.write(runs)
        return cuboid

    def runs(self):
        """The stored cells in the store's own encoding, for :meth:`spliced`."""
        return self._store.runs()

    def spliced(self, runs, additions) -> "RankingCuboid":
        """The next generation on fresh pages: ``runs`` (this cuboid's,
        from :meth:`runs`) with each cell's encoded ``(tid, bid)``
        ``additions`` run appended, same layout as :meth:`from_runs` over
        the merged cells, and the epoch bumped.  The grid is unchanged,
        so the next generation shares this one's pseudo-block map and its
        warm ``bid -> pid`` table."""
        cuboid = type(self)(
            self._store.pool, self.dims, self.cardinalities, self.grid,
            scale_override=self.scale_factor, epoch=self.epoch + 1,
        )
        cuboid.pseudo = self.pseudo
        cuboid._store.splice(runs, additions)
        return cuboid

    # ------------------------------------------------------------------
    def cells(self):
        """Iterate ``(cell key, pairs)`` in key order (maintenance scans).

        Cell keys are ``(sel values..., pid)`` tuples; pairs are
        ``(tid, bid)``.  Unmetered for :attr:`access_count`.
        """
        for key, records in self._store.items():
            yield tuple(key), [(int(tid), int(bid)) for tid, bid in records]

    # ------------------------------------------------------------------
    def get_pseudo_block(
        self, sel_values: Sequence[int], pid: int
    ) -> list[tuple[int, int]]:
        """All ``(tid, bid)`` pairs in cell ``(sel_values..., pid)``.

        An absent cell returns an empty list: the directory probe still
        costs I/O but no block chain is read — the effect behind the
        high-cardinality robustness in Figure 8.
        """
        if len(sel_values) != len(self.dims):
            raise CuboidError(
                f"cuboid {self.name} takes {len(self.dims)} selection values"
            )
        self.access_count += 1
        key = tuple(int(v) for v in sel_values) + (int(pid),)
        return [(int(tid), int(bid)) for tid, bid in self._store.get(key)]

    def decode_pseudo_block(
        self, sel_values: Sequence[int], pid: int
    ) -> dict[int, list[int]]:
        """Pseudo block decoded to the retrieve step's working form.

        Groups :meth:`get_pseudo_block`'s ``(tid, bid)`` pairs by bid —
        the shape the executor's per-query buffer and the serving layer's
        shared :class:`~repro.serve.cache.PseudoBlockCache` both store.
        The grouping happens here so every caching layer shares one
        decoder (and pays it exactly once per cold fetch).
        """
        pairs = self.get_pseudo_block(sel_values, pid)
        by_bid: dict[int, list[int]] = {}
        if len(pairs) >= _VECTOR_DECODE_THRESHOLD:
            # batched group-by-bid: one stable sort + one split instead
            # of a per-pair dict probe.  Stability keeps each bid's tid
            # list in pair order, identical to the loop.
            arr = np.asarray(pairs, dtype=np.int64)
            order = np.argsort(arr[:, 1], kind="stable")
            bids = arr[order, 1]
            tids = arr[order, 0]
            cuts = np.nonzero(bids[1:] != bids[:-1])[0] + 1
            starts = [0, *cuts.tolist(), len(bids)]
            for i in range(len(starts) - 1):
                lo, hi = starts[i], starts[i + 1]
                by_bid[int(bids[lo])] = tids[lo:hi].tolist()
            return by_bid
        for tid, entry_bid in pairs:
            by_bid.setdefault(entry_bid, []).append(tid)
        return by_bid

    def pid_of_bid(self, bid: int) -> int:
        return self.pseudo.pid_of_bid(bid)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return "".join(self.dims) + "|" + "".join(self.grid.dims)

    @property
    def scale_factor(self) -> int:
        return self.pseudo.sf

    @property
    def num_entries(self) -> int:
        return self._store.num_records

    @property
    def counts(self) -> dict[tuple, int]:
        """Pairs per stored cell, keyed ``(sel values..., pid)``; in
        memory, no I/O (the cost model's statistics)."""
        return self._store.counts

    @property
    def size_in_bytes(self) -> int:
        return self._store.size_in_bytes

    def __repr__(self) -> str:
        return (
            f"RankingCuboid({self.name}, sf={self.scale_factor}, "
            f"entries={self.num_entries})"
        )
