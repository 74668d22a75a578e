"""Resumable any-k ranked enumeration over the ranking cube.

Ranked enumeration (Tziavelis et al., *Ranked Enumeration for Database
Queries*) generalizes top-k: instead of a fixed-size answer, the client
opens a cursor and pulls results one batch at a time, in certified rank
order, for as long as it wants — "give me the next 10" past any k.  The
cube geometry already supports this: :class:`ProgressiveSearch` streams
blocks in ascending ``f(bid)`` bound order, so a tuple may be *emitted*
as soon as its exact score is below the frontier's ``best_unseen`` bound
— no block that could beat it remains unexamined.

:class:`AnyKCursor` wraps a :class:`ProgressiveSearch` (whose steps
return every qualifying tuple of a block, so enumeration runs past
``query.k``) plus a buffer heap of scored-but-uncertified tuples.  The
delta store is folded into the buffer at open time, since delta rows
carry no block bound.  Emission uses the *strict* test
``buffer_min < best_unseen``: a block whose bound ties the buffered
score could still contain an equal-score, smaller-tid tuple, and the
``(score, tid)`` tie-breaking contract documented on
:class:`~repro.relational.query.QueryResult` must hold at every depth.

Resumability contract: the cursor pins one cube snapshot at open time
(see :meth:`repro.core.cube.RankingCube.snapshot`) and enumerates that
snapshot to exhaustion.  Appends and compaction runs (cuboid epoch
bumps, delta drains, block-page swaps) that happen mid-enumeration
never change what the cursor returns — it answers as of its open point,
exactly like a single ``execute`` call does.
"""

from __future__ import annotations

import heapq

from ..obs.tracing import Tracer, maybe_span
from ..relational.query import ResultRow, TopKQuery
from ..storage.device import StorageError
from .executor import (
    ExecutorTrace,
    ProgressiveSearch,
    QueryAbortedError,
    RankingCubeExecutor,
)

__all__ = ["AnyKCursor"]


class AnyKCursor:
    """Pull-based ranked enumeration: certified ``(score, tid)`` order,
    arbitrarily far past ``query.k``.

    Obtain one via :meth:`RankingCubeExecutor.open_search` (or the
    serving layer's ``open_search`` front ends).  Not thread-safe; one
    consumer steps it.  Storage faults surface from :meth:`next_batch`
    as typed :class:`~repro.core.executor.QueryAbortedError` carrying
    the rows certified before the fault; the block that faulted stays on
    the frontier, so once the device heals the next call resumes the
    same certified order.
    """

    def __init__(
        self,
        executor: RankingCubeExecutor,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        tracer: Tracer | None = None,
    ):
        self.executor = executor
        self.query = query
        self.tracer = tracer
        self.search = ProgressiveSearch(executor, query, trace)
        #: scored but not yet certified tuples, min-heap on (score, tid)
        self._buffer: list[tuple[float, int]] = []
        #: rows emitted so far (== the rank of the last emitted row)
        self.rank = 0
        #: the first ``query.k`` emitted rows — the conventional top-k
        self._topk: list[ResultRow] = []
        #: serving-layer hook: runs once, on the first :meth:`close`
        self._on_close = None
        self.closed = False
        with maybe_span(tracer, "anyk_open") as span:
            delta = self.search.delta_rows()
            for pair in delta:
                heapq.heappush(self._buffer, pair)
            if span is not None:
                span.add("delta_rows", len(delta))

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once every matching tuple of the snapshot was emitted."""
        return self.search.exhausted and not self._buffer

    @property
    def result(self):
        """The conventional top-k view of this enumeration.

        Rows are the first ``query.k`` rows emitted so far (complete —
        and equal to a one-shot ``execute`` — once ``rank >= query.k``
        or the cursor is exhausted); counters are the underlying
        search's live I/O and work totals.
        """
        live = self.search.result
        return type(live)(
            rows=list(self._topk),
            tuples_examined=live.tuples_examined,
            blocks_accessed=live.blocks_accessed,
            candidates_examined=live.candidates_examined,
        )

    def next_batch(self, count: int) -> list[ResultRow]:
        """The next ``count`` rows in certified rank order.

        Returns fewer than ``count`` rows only when the snapshot is
        exhausted; an empty list means *done*, never *try again*.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        rows: list[ResultRow] = []
        live = self.search.result
        with maybe_span(self.tracer, "anyk_batch", requested=count) as span:
            steps_before = live.candidates_examined
            try:
                while len(rows) < count:
                    row = self._next_certified()
                    if row is None:
                        break
                    rows.append(row)
            except StorageError as exc:
                raise QueryAbortedError(
                    f"any-k enumeration aborted at rank {self.rank} "
                    f"after {live.blocks_accessed} block reads: {exc}",
                    partial_rows=rows,
                    blocks_accessed=live.blocks_accessed,
                    cause=exc,
                ) from exc
            if span is not None:
                span.add("rows", len(rows))
                span.add("steps", live.candidates_examined - steps_before)
        return rows

    def __iter__(self):
        """Iterate remaining rows one at a time (same certified order)."""
        while True:
            batch = self.next_batch(1)
            if not batch:
                return
            yield batch[0]

    def close(self) -> None:
        """Mark the cursor done (idempotent).

        Enumeration needs no teardown — the snapshot holds no locks —
        but serving front ends hang span retention off this point, so
        prefer ``with service.open_search(q) as cursor:`` over leaking.
        """
        if self.closed:
            return
        self.closed = True
        if self._on_close is not None:
            self._on_close()

    def __enter__(self) -> "AnyKCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _next_certified(self) -> ResultRow | None:
        search, buffer = self.search, self._buffer
        while True:
            if buffer and (
                search.exhausted or buffer[0][0] < search.best_unseen
            ):
                score, tid = heapq.heappop(buffer)
                self.rank += 1
                row = ResultRow(tid=tid, score=score)
                if self.query.projection:
                    row = self.executor._project(row, self.query)
                if self.rank <= self.query.k:
                    self._topk.append(row)
                return row
            if search.exhausted:
                return None
            for pair in search.step():
                heapq.heappush(buffer, pair)
