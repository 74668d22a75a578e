"""Top-k query execution over a ranking cube (Section 3.2).

The paper's query algorithm is one four-step loop with one stop rule, and
it lives here once, as :class:`ProgressiveSearch`:

* **Pre-process** — pick the covering cuboid(s) for the query's selection
  dimensions (a single cuboid for a full cube; several, intersected, for
  ranking fragments — Section 4.2) and the base block table.
* **Search** — maintain the frontier ``H`` of candidates ordered by their
  lower bound (minimum of the convex ranking function over the
  candidate's box).  The frontier is sparse: with a selection, it holds
  pseudo blocks of the lead covering cuboid and, once one is opened, only
  the bids in it that hold a tuple of the query's cell.  The first entry
  contains the global minimizer of ``f``; the next come from Lemma 1's
  neighbor expansion on the pseudo-block grid.  A query with no selection
  walks base blocks on the fine grid.
* **Retrieve** — ``get_pseudo_block`` on the lead cuboid when a pseudo
  entry is opened, and on every other covering cuboid for a popped bid's
  pid; results are buffered per pseudo block so sibling bids cost no
  further I/O; with several covering cuboids the tid lists are
  intersected (the semi-online computation of Section 4.2.2).
* **Evaluate** — ``get_base_block`` fetches real ranking values for the
  qualifying tids (the block's pages are read; only those tids are
  decoded); exact scores feed the top-k list ``S``.

Frontier bounds of the separable ranking families (linear, Lp distance,
negated linear) are folded from a per-bin term table the search builds
once, bit-identical to ``min_over_box``, and a pseudo block's from the
same table's minima over each group of ``sf`` bins; other families
minimize each block's box, and a pseudo block takes its bids' least.

The loop stops when ``S_k <= S_unseen``, i.e. the k-th best seen score is
no worse than the best possible score of any unexamined block.

A search is opened per query: its constructor is the pre-process step,
:meth:`ProgressiveSearch.step` runs search + retrieve + evaluate on one
block, and :meth:`ProgressiveSearch.run` drives ``step`` under the stop
rule.  Every consumer is a driver over that one stream, in the spirit of
ranked enumeration (top-k is the first k answers of "next best under a
monotone bound"): :meth:`RankingCubeExecutor.execute` runs it to the
stop rule and merges the delta store, ``explain`` reads its plan without
stepping, a shard session (:mod:`repro.serve.endpoint`) runs it a few
steps at a time under the global k-th score, any-k cursors
(:mod:`repro.core.anyk`) and reverse top-k (:mod:`repro.core.reverse`)
step it past the stop rule.

Beyond the paper, the executor composes with the serving layer
(:mod:`repro.serve`): it accepts an injected shared
:class:`~repro.serve.cache.PseudoBlockCache` (decoded tid lists reused
*across* queries, not just within one) and a shared
:class:`~repro.serve.cache.BoundMemo` (``f(bid)`` computed once per
ranking-function/grid pair across a whole query stream).  Both are
optional; a bare executor behaves exactly as the paper describes.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from copy import copy
from dataclasses import dataclass, field

from ..obs.tracing import Span, Tracer, maybe_span
from ..relational.query import (
    QueryResult,
    ResultRow,
    TopKQuery,
    push_topk,
    rows_from_heap,
)
from ..relational.table import Table
from ..storage.device import StorageError
from .cube import CubeError, RankingCube

#: Reusable inert context for untraced executions (stateless, shareable).
_NULL_CM = nullcontext()

#: Frontier entry kinds, the entry's second field: at equal bounds a bid
#: pops before a pseudo block (see DESIGN.md section 3, "Sparse frontier").
_BID, _PSEUDO = 0, 1


def _measured(tracer: Tracer | None, span):
    """Attribute a block's watched-metric deltas to ``span`` when tracing."""
    return tracer.measure(span) if tracer is not None else _NULL_CM


class QueryAbortedError(StorageError):
    """A top-k query hit an unrecoverable storage fault mid-execution.

    Retries below the executor absorb transient faults; when they run out
    (or on-disk damage persists), the executor aborts with this error
    rather than a random traceback.  It is *partial-result-aware*: the
    best-first candidates scored before the fault are attached, ranked, so
    an any-time caller can degrade gracefully — but they are explicitly
    **not** a correct top-k answer (unexamined blocks may hold better
    tuples).

    Attributes
    ----------
    partial_rows:
        The top-k heap's contents at abort time, best score first.
    blocks_accessed:
        Actual block fetches issued before the fault.
    cause:
        The underlying typed storage error.
    """

    def __init__(
        self,
        message: str,
        *,
        partial_rows: list[ResultRow],
        blocks_accessed: int,
        cause: StorageError,
    ):
        super().__init__(message)
        self.partial_rows = partial_rows
        self.blocks_accessed = blocks_accessed
        self.cause = cause

    def __reduce__(self):
        # The default exception reduce replays ``cls(*args)`` and loses the
        # keyword-only payload: unpickling would raise TypeError.  Aborts
        # cross process boundaries in the sharded serving tier, so this
        # error is wire format and must round-trip with its payload.
        return (
            _rebuild_query_aborted,
            (str(self), self.partial_rows, self.blocks_accessed, self.cause),
        )


def _rebuild_query_aborted(message, partial_rows, blocks_accessed, cause):
    """Unpickle hook for :class:`QueryAbortedError` (kwargs-only ctor)."""
    return QueryAbortedError(
        message,
        partial_rows=partial_rows,
        blocks_accessed=blocks_accessed,
        cause=cause,
    )


@dataclass
class ExecutorTrace:
    """Optional per-query diagnostics (used by tests and ablations).

    The retrieve-step counters attribute each pseudo-block request to the
    layer that answered it, so ablations can credit I/O savings correctly:

    * ``pseudo_block_fetches`` — cold fetches that read and decoded pages,
    * ``pseudo_block_buffer_hits`` — answered by this query's own buffer,
    * ``shared_cache_hits`` — answered by the cross-query
      :class:`~repro.serve.cache.PseudoBlockCache`.

    ``bound_memo_hits`` counts frontier bounds served by the shared
    :class:`~repro.serve.cache.BoundMemo` instead of being minimized anew.

    A search's ``candidates_examined`` counts frontier pops of both kinds:
    the bids in ``candidate_bids`` plus ``pseudo_entries`` pseudo blocks
    opened.  ``empty_cells_skipped`` counts popped bids whose tid lists
    the covering cuboids' intersection emptied.

    A trace may be reused across queries: counters then accumulate
    (``frontier_peak`` is the largest peak of any of them), and each
    search reports only its own share to its spans.
    """

    candidate_bids: list[int] = field(default_factory=list)
    pseudo_entries: int = 0
    pseudo_block_fetches: int = 0
    pseudo_block_buffer_hits: int = 0
    shared_cache_hits: int = 0
    bound_memo_hits: int = 0
    base_block_reads: int = 0
    empty_cells_skipped: int = 0
    frontier_peak: int = 0


@dataclass(frozen=True)
class QueryPlan:
    """The executor's resolved strategy for one query (see ``explain``)."""

    covering_cuboids: tuple[str, ...]
    intersection_required: bool
    start_bid: int
    start_bound: float
    grid_blocks: int
    scale_factors: tuple[int, ...]
    delta_tuples: int
    cache_layers: tuple[str, ...] = ()

    def describe(self) -> str:
        lines = [
            "RankingCube plan:",
            f"  covering cuboids: {', '.join(self.covering_cuboids) or '(none: base blocks only)'}",
        ]
        if self.intersection_required:
            lines.append("  retrieve step intersects tid lists across cuboids")
        lines.append(
            f"  start block: bid={self.start_bid} (bound {self.start_bound:.4f}) "
            f"of {self.grid_blocks} blocks"
        )
        if self.cache_layers:
            lines.append(f"  cache layers: {', '.join(self.cache_layers)}")
        if self.delta_tuples:
            lines.append(f"  + merge {self.delta_tuples} delta tuple(s)")
        return "\n".join(lines)


class RankingCubeExecutor:
    """Executes :class:`TopKQuery` objects against a :class:`RankingCube`.

    Parameters
    ----------
    cube:
        The materialized ranking cube (full or fragment family).
    relation:
        The original relation; only needed when queries project attributes
        beyond tid and score.
    pseudo_cache:
        Optional shared :class:`~repro.serve.cache.PseudoBlockCache`
        consulted between the per-query buffer and a cold fetch.  The
        executor only *inserts* fully decoded blocks, so an aborted query
        cannot poison it.
    bound_memo:
        Optional shared :class:`~repro.serve.cache.BoundMemo` for frontier
        lower bounds.
    block_cache:
        Optional shared :class:`~repro.serve.cache.BlockCache`: decoded
        base blocks reused across queries.  Logical counters
        (``blocks_accessed`` etc.) are unaffected by hits — the cache
        saves the directory walk, page gets and decode.  Without one,
        the evaluate step is the paper's selective ``get_base_block``.

    The executor keeps no per-query state on ``self`` — that all lives on
    the query's :class:`ProgressiveSearch` — so one instance may be shared
    by concurrent threads **provided** its buffer pool is the thread-safe
    read path (see ``repro.storage.buffer``) — this is how
    :class:`repro.serve.QueryService` drives it.
    """

    def __init__(
        self,
        cube: RankingCube,
        relation: Table | None = None,
        pseudo_cache=None,
        bound_memo=None,
        block_cache=None,
    ):
        self.cube = cube
        self.relation = relation
        self.pseudo_cache = pseudo_cache
        self.bound_memo = bound_memo
        self.block_cache = block_cache

    # ------------------------------------------------------------------
    def execute(
        self,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Run one top-k query and return its ordered answer.

        Opens a :class:`ProgressiveSearch`, runs it to the stop rule and
        merges the delta store's rows, which carry no block bound, after
        the frontier.

        ``trace`` collects per-query counters (cheap, always available);
        ``tracer`` additionally builds an observability span tree — plan →
        search (retrieve/evaluate aggregates) → delta-merge — with every
        retrieve attributed to the layer that answered it and per-span
        watched-metric I/O deltas (see :mod:`repro.obs.tracing`).  Span
        I/O attribution is exact for serial execution.
        """
        attrs: dict = {}
        if tracer is not None:
            attrs = dict(
                k=query.k,
                selections=dict(sorted(query.selections.items())),
                ranking=",".join(query.ranking.dims),
            )
        with maybe_span(tracer, "query", **attrs) as query_span:
            search = ProgressiveSearch(self, query, trace, tracer=tracer)
            result, topk = search.result, search.topk
            try:
                search.run()
                with maybe_span(tracer, "delta_merge") as delta_span:
                    delta = search.delta_rows()
                    search.offer(delta)
                    if delta_span is not None:
                        delta_span.add("delta_tuples_examined", len(delta))
            except StorageError as exc:
                raise QueryAbortedError(
                    f"query aborted after {result.blocks_accessed} block "
                    f"fetch(es): {exc}",
                    partial_rows=rows_from_heap(topk),
                    blocks_accessed=result.blocks_accessed,
                    cause=exc,
                ) from exc
            rows = rows_from_heap(topk)
            if query.projection:
                rows = [self._project(row, query) for row in rows]
            result.rows = rows
            if query_span is not None:
                query_span.add_many(
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                    tuples_examined=result.tuples_examined,
                    rows_returned=len(rows),
                )
            return result

    def open_search(
        self,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        tracer: Tracer | None = None,
    ) -> "AnyKCursor":
        """Open a resumable any-k cursor over this executor.

        Unlike :meth:`execute`, nothing is computed eagerly beyond the
        delta merge: the returned cursor pins the current cube snapshot
        and yields results in certified ``(score, tid)`` rank order —
        past ``query.k``, on demand — via
        :meth:`~repro.core.anyk.AnyKCursor.next_batch`.
        """
        from .anyk import AnyKCursor

        return AnyKCursor(self, query, trace=trace, tracer=tracer)

    def explain(self, query: TopKQuery) -> "QueryPlan":
        """Describe how the query would execute, without executing it.

        Opens the search ``execute`` would open and reads its plan — the
        covering cuboids, the start block and the frontier's initial
        bound — so whatever ``execute`` rejects, ``explain`` rejects with
        the same typed error.  Packaged with cost-model context
        (block/cell geometry) and the caching layers the retrieve step
        will consult.
        """
        # Opening a search reads no page.  It is opened on a cache-less
        # twin of this executor so that the start bound neither consults
        # nor feeds the shared bound memo: explaining leaves every cache
        # statistic and registry counter where it was.
        search = ProgressiveSearch(
            RankingCubeExecutor(self.cube, self.relation), query
        )
        layers = ["per-query pseudo-block buffer"]
        if self.pseudo_cache is not None:
            layers.append("shared pseudo-block cache")
        if self.bound_memo is not None and query.ranking.cache_key() is not None:
            layers.append("shared bound memo")
        if self.block_cache is not None:
            layers.append("shared block cache")
        return QueryPlan(
            covering_cuboids=tuple(c.name for c in search.covering),
            intersection_required=len(search.covering) > 1,
            start_bid=search.start_bid,
            start_bound=search.best_unseen,
            grid_blocks=search.snapshot.grid.num_blocks,
            scale_factors=tuple(c.scale_factor for c in search.covering),
            delta_tuples=search.snapshot.delta_size,
            cache_layers=tuple(layers),
        )

    def _project(self, row: ResultRow, query: TopKQuery) -> ResultRow:
        """Fetch projected attribute values from the original relation."""
        if self.relation is None:
            raise CubeError("projection requires the original relation")
        record = self.relation.fetch_by_tid(row.tid)
        schema = self.relation.schema
        values = tuple(
            record[schema.position(name)] for name in (query.projection or ())
        )
        return ResultRow(tid=row.tid, score=row.score, values=values)


class SharedRetrieval:
    """The plan and the retrieved data that a family of searches shares.

    A reverse top-k query (:func:`repro.core.reverse.count_family`) runs
    one search per candidate function over one selection.  The first
    search pins the snapshot and resolves the covering cuboids and the
    cells into this object; every later one adopts them, and with them
    the per-cell pseudo-block buffers and :attr:`records`, the ``(tid,
    values)`` pairs read per bid.  A bid's qualifying tids depend on the
    selection alone, so every member reads the same records: each
    ``(cuboid, cell, pid)`` is decoded once and each bid read once per
    family, and ``blocks_accessed`` counts those first visits only.
    :attr:`records` grows with every block the family reads, so a lone
    search and a cursor, whose memory must stay bounded, run without one.
    """

    __slots__ = ("snapshot", "covering", "cells", "records")

    def __init__(self) -> None:
        self.snapshot = None
        self.covering: list = []
        self.cells: list = []
        #: bid -> its qualifying ``(tid, values)`` pairs, as first read
        self.records: dict[int, list] = {}


class ProgressiveSearch:
    """The paper's progressive search over one executor + query: the only
    implementation of the four steps, shared by every consumer — plain
    top-k (:meth:`RankingCubeExecutor.execute`), plan introspection
    (``explain``), scatter-gather shard sessions, any-k enumeration
    cursors (:class:`repro.core.anyk.AnyKCursor`), and reverse top-k
    counting (:mod:`repro.core.reverse`).

    Constructing one is the pre-process step: it pins a cube snapshot,
    validates the query, resolves the covering cuboids and the start
    block, and owns all per-query state from then on (frontier, inserted
    set, pseudo-block buffers, the :attr:`topk` heap, the
    :attr:`result` counters, the trace).  Each :meth:`step` pops the
    frontier's best entry.  A pseudo block of the lead cuboid is opened:
    its non-empty bids and its unseen neighbors on the pseudo-block grid
    (Lemma 1) join the frontier, and the step returns no pair.  A bid
    runs retrieve + evaluate and the step returns the ``(score, tid)``
    pairs found there; only a query with no selection, whose frontier
    holds bids alone, expands a bid's neighbors.  :meth:`run` drives
    ``step`` under the stop rule.  Between
    steps, :attr:`best_unseen` is a certified lower bound on the score of
    every tuple this search has not yet returned — except the delta
    store, whose rows carry no block bound and must be merged
    unconditionally via :meth:`delta_rows`.

    A global merger (see :class:`repro.serve.sharded.ShardedQueryService`)
    can therefore stop stepping a shard as soon as its k-th best seen
    score is strictly better than the shard's ``best_unseen``: any tuple
    still unreturned scores at least ``best_unseen`` and can never
    displace a kept entry under the tid-ascending tie-breaking contract.
    Stepping *more* than necessary only changes amortization, never the
    answer — scoring is deterministic and
    :func:`~repro.relational.query.push_topk` is insertion-order
    independent.

    Each bid's step returns *every* qualifying tuple of its block, unordered:
    top-k keeps the best ``query.k`` through :meth:`offer`, enumeration
    ranks past k, and reverse top-k counts arbitrary predecessors.

    ``tracer`` makes the search emit the executor's span tree: ``plan``
    (with ``cuboid_selection``) from the constructor, and from
    :meth:`run` a ``block_frontier`` span whose ``retrieve`` /
    ``evaluate`` aggregates collect every step's I/O.  Consumers that
    trace at their own granularity (shard sessions, cursors) leave it
    out.

    The search pins one consistent cube snapshot for its whole lifetime
    — later appends or compaction epoch bumps never leak in, and a
    concurrent compaction swap cannot hand it a mix of old and new state
    — and keeps all state on itself, so many instances may run
    concurrently over one (thread-safe) executor.  Storage faults
    propagate from :meth:`step` as typed
    :class:`~repro.storage.device.StorageError`\\ s; the search object
    stays consistent (the faulted block stays on the frontier, so a
    later step examines it again) and the caller decides whether to
    abort the whole query.

    ``shared`` (internal, reverse top-k only) is the
    :class:`SharedRetrieval` of a family of searches over one selection:
    the first search resolves the plan into it, later ones adopt its
    snapshot, cuboids and buffers instead of resolving their own.
    """

    def __init__(
        self,
        executor: RankingCubeExecutor,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        tracer: Tracer | None = None,
        shared: SharedRetrieval | None = None,
    ):
        if tracer is not None and trace is None:
            trace = ExecutorTrace()  # the spans report from its counters
        self.executor = executor
        self.query = query
        self.trace = trace
        self._tracer = tracer
        adopted = shared is not None and shared.snapshot is not None
        self.snapshot = state = (
            shared.snapshot if adopted else executor.cube.snapshot()
        )
        self._grid = grid = state.grid
        self._fn = fn = query.ranking
        self._records = None if shared is None else shared.records

        # --- pre-process (plan): covering cuboids + start block ----------
        with maybe_span(tracer, "plan") as plan_span:
            missing = [d for d in fn.dims if d not in grid.dims]
            if missing:
                raise CubeError(f"ranking dimensions {missing} not in the cube")
            if adopted:
                # the family's first search validated the selection, and a
                # grid dimension is a ranking attribute of the schema
                self.covering, self._cells = shared.covering, shared.cells
            else:
                if executor.relation is not None:
                    query.validate_against(executor.relation.schema)
                with maybe_span(tracer, "cuboid_selection") as cuboid_span:
                    self.covering = state.covering_cuboids(query.selection_names)
                    if cuboid_span is not None:
                        cuboid_span.attributes["covering"] = tuple(
                            c.name for c in self.covering
                        )
                        cuboid_span.add("covering_cuboids", len(self.covering))
                # per covering cuboid: (cuboid, its cell's values, the
                # buffer for it: pid -> {bid: [tid, ...]})
                self._cells = [
                    (cuboid, tuple(query.selections[d] for d in cuboid.dims), {})
                    for cuboid in self.covering
                ]
                if shared is not None:
                    shared.snapshot = state
                    shared.covering, shared.cells = self.covering, self._cells
            self._positions = grid.project(fn.dims)
            #: ``(offset, ((position, per-bin terms), ...))``, ``()`` when
            #: the function is not separable, ``None`` until first needed
            self._bound_table: tuple | None = None
            self._memo = (
                executor.bound_memo.group(fn, grid)
                if executor.bound_memo is not None
                else None
            )
            self.start_bid = self._start_block()
            if plan_span is not None:
                plan_span.add("grid_blocks", grid.num_blocks)
                plan_span.attributes["start_bid"] = self.start_bid

        # --- search state -------------------------------------------------
        # the trace's counters as this search found them: a reused trace
        # keeps accumulating, the spans report this search's share
        self._trace_base = copy(trace) if tracer is not None else None
        self._retrieve_span: Span | None = None
        self._evaluate_span: Span | None = None
        self.result = QueryResult()
        #: best ``query.k`` seen scores as a max-heap of ``(-score, -tid)``
        #: (see ``push_topk``); fed through :meth:`offer` — by :meth:`run`,
        #: and by the caller for delta rows
        self.topk: list[tuple[float, int]] = []
        #: largest frontier this search held after any step (traced only)
        self.frontier_peak = 0
        #: the lead cuboid's pseudo-block grid (None: no selection)
        self._coarse = None
        #: ``_bound_table``'s least term per pseudo bin; None until needed
        self._pseudo_table: tuple | None = None
        #: pid -> its bids' bounds, for a non-separable function's open
        self._pseudo_bids: dict[int, dict[int, float]] = {}
        # the frontier: a min-heap of (bound, kind, id), kind _BID or
        # _PSEUDO.  With a selection it starts at the lead cuboid's pseudo
        # block that holds start_bid (its bound is start_bid's), else at
        # start_bid itself.
        if self._cells:
            pseudo = self.covering[0].pseudo
            self._coarse = pseudo.coarse
            start = pseudo.pid_of_bid(self.start_bid)
            self._frontier = [(self._pseudo_bound(start), _PSEUDO, start)]
        else:
            start = self.start_bid
            self._frontier = [(self._block_bound(start), _BID, start)]
        #: ids ever pushed: pids with a selection, else bids
        self._inserted = {start}

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once every block of this search's grid has been examined."""
        return not self._frontier

    @property
    def best_unseen(self) -> float:
        """Lower bound on every not-yet-returned block tuple (inf when done)."""
        return self._frontier[0][0] if self._frontier else float("inf")

    def run(
        self, kth: float | None = None, max_steps: int | None = None
    ) -> tuple[list[tuple[float, int]], int]:
        """Drive :meth:`step` under the stop rule, feeding :attr:`topk`.

        The one stop rule, ``S_k <= S_unseen``: stop once :attr:`topk`
        holds ``query.k`` scores and the k-th is strictly better than
        :attr:`best_unseen`.  Strict, because a block whose lower bound
        *ties* the k-th score may still hold an equal-score tuple with a
        smaller tid, which the tie-breaking contract requires us to keep.

        ``kth`` is a scatter-gather merge's *global* k-th score: a shard
        whose bound exceeds it is pruned the same way (the strict
        complement of the merge's non-strict continue) even before its
        local top-k fills.  ``max_steps`` bounds one call, so a session
        can interleave with its siblings and resume.  The unsharded query
        is the case ``kth=None``, unlimited steps.

        Returns the pairs the steps scored and how many steps ran.
        """
        topk, k, frontier, step = self.topk, self.query.k, self._frontier, self.step
        scored: list[tuple[float, int]] = []
        steps = 0
        with maybe_span(self._tracer, "block_frontier") as span:
            if span is not None:
                self._retrieve_span = span.child("retrieve")
                self._evaluate_span = span.child("evaluate")
            while frontier and steps != max_steps:
                bound = frontier[0][0]
                if (kth is not None and bound > kth) or (
                    len(topk) >= k and bound > -topk[0][0]
                ):
                    break
                pairs = step()
                if pairs:  # most cells of a selective query are empty
                    self.offer(pairs)
                    scored += pairs
                steps += 1
            if span is not None:
                self._report(span)
        return scored, steps

    def offer(self, pairs: list[tuple[float, int]]) -> None:
        """Offer scored ``(score, tid)`` pairs to :attr:`topk`."""
        topk, k = self.topk, self.query.k
        for score, tid in pairs:
            push_topk(topk, k, score, tid)

    def step(self) -> list[tuple[float, int]]:
        """Examine the frontier's best entry; return its scored tuples.

        Returns an empty list when the entry was a pseudo block, when the
        block held no qualifying tuples *or* when the search is exhausted
        — check :attr:`exhausted` to tell the last apart.
        """
        frontier = self._frontier
        if not frontier:
            return []
        trace = self.trace
        entry = heapq.heappop(frontier)
        _bound, kind, key = entry
        scored: list[tuple[float, int]] = []
        try:
            if kind == _PSEUDO:
                self._open_pseudo_block(key)
            else:
                qualifying = self._retrieve(key)
                if qualifying is None or qualifying:
                    with _measured(self._tracer, self._evaluate_span):
                        scored = self._score_block(key, qualifying)
        except StorageError:
            # the entry stays a candidate, so a resumed search examines it
            heapq.heappush(frontier, entry)
            raise
        self.result.candidates_examined += 1
        if kind == _PSEUDO:
            if trace is not None:
                trace.pseudo_entries += 1
        else:
            if trace is not None:
                trace.candidate_bids.append(key)
                if qualifying is not None and not qualifying:
                    trace.empty_cells_skipped += 1
            if self._coarse is None:
                self._expand_neighbors(key)
        if trace is not None and len(frontier) > self.frontier_peak:
            self.frontier_peak = len(frontier)
            if self.frontier_peak > trace.frontier_peak:
                trace.frontier_peak = self.frontier_peak
        return scored

    def delta_rows(self) -> list[tuple[float, int]]:
        """Scored matches from the snapshot's delta store (no block bound).

        Tuples appended after the build are held in memory and scored
        against every query (see ``RankingCube.refresh_delta``).
        """
        rows: list[tuple[float, int]] = []
        for tid, rank_values in self.snapshot.delta_matches(
            dict(self.query.selections)
        ):
            point = [rank_values[d] for d in self._fn.dims]
            score = self._fn.score(point)
            self.result.tuples_examined += 1
            rows.append((score, tid))
        return rows

    def _report(self, span: Span) -> None:
        """Fold this search's work into its ``block_frontier`` span tree."""
        trace, base, result = self.trace, self._trace_base, self.result

        def mine(counter: str) -> int:
            return getattr(trace, counter) - getattr(base, counter)

        span.add_many(
            candidates_examined=result.candidates_examined,
            frontier_peak=self.frontier_peak,
            empty_cells_skipped=mine("empty_cells_skipped"),
            bound_memo_hits=mine("bound_memo_hits"),
        )
        self._retrieve_span.add_many(
            cold_fetches=mine("pseudo_block_fetches"),
            query_buffer_hits=mine("pseudo_block_buffer_hits"),
            shared_cache_hits=mine("shared_cache_hits"),
        )
        self._evaluate_span.add_many(
            base_block_reads=mine("base_block_reads"),
            tuples_examined=result.tuples_examined,
        )

    # ------------------------------------------------------------------
    # the four steps
    # ------------------------------------------------------------------
    def _start_block(self) -> int:
        """Block containing the global minimizer of the ranking function."""
        lower, upper = self._grid.full_box()
        positions = self._positions
        minimizer = self._fn.argmin_over_box(
            [lower[p] for p in positions], [upper[p] for p in positions]
        )
        point = list(lower)  # unranked dimensions start at the grid's low edge
        for value, p in zip(minimizer, positions):
            point[p] = value
        return self._grid.locate(point)

    def _terms(self) -> tuple:
        """The per-bin term table ``(offset, ((position, terms), ...))``,
        ``()`` when the function is not separable; built on first use."""
        table = self._bound_table
        if table is None:
            grid, positions = self._grid, self._positions
            terms = self._fn.box_min_terms([grid.boundaries[p] for p in positions])
            table = self._bound_table = (
                () if terms is None else (terms[0], tuple(zip(positions, terms[1])))
            )
        return table

    def _block_bound(self, bid: int) -> float:
        """``f(bid)``: minimum of the ranking function over the block box.

        With a shared bound memo attached, each (function, grid, bid)
        minimization happens once across the whole query stream.  A
        separable function sums its per-bin terms (built at the first
        bound the memo cannot answer) with ``sum()``, then adds the
        offset, as ``min_over_box`` does — bit-identical to it.
        """
        memo = self._memo
        if memo is not None:
            cached = self.executor.bound_memo.lookup(memo, bid)
            if cached is not None:
                if self.trace is not None:
                    self.trace.bound_memo_hits += 1
                return cached
        table = self._terms()
        if table:
            offset, columns = table
            coords = self._grid.coords_of(bid)
            bound = offset + sum([row[coords[p]] for p, row in columns])
        else:
            lower, upper = self._grid.sub_box(bid, self._positions)
            bound = self._fn.min_over_box(lower, upper)
        if memo is not None:
            self.executor.bound_memo.store(memo, bid, bound)
        return bound

    def _pseudo_bound(self, pid: int) -> float:
        """Minimum of the ranking function over the lead cuboid's pseudo
        block ``pid``: the least ``f(bid)`` of the bids it merges.

        A separable function folds, per dimension, the least term of the
        pseudo bin's ``sf`` fine bins, in ``_block_bound``'s order.  Float
        addition is monotone in each operand, so the fold is the bound of
        the bid that takes every least term, and no other bid's bound is
        smaller: the minimum, bit for bit.  Other families take the least
        ``_block_bound`` of the bids and keep those bounds for the open.
        """
        table = self._pseudo_table
        if table is None:
            table = self._terms()
            if table:
                sf = self.covering[0].scale_factor
                offset, columns = table
                table = (offset, tuple(
                    (p, [min(row[c:c + sf]) for c in range(0, len(row), sf)])
                    for p, row in columns
                ))
            self._pseudo_table = table
        if table:
            offset, columns = table
            coords = self._coarse.coords_of(pid)
            return offset + sum([row[coords[p]] for p, row in columns])
        bounds = self._pseudo_bids[pid] = {
            bid: self._block_bound(bid)
            for bid in self.covering[0].pseudo.bids_of_pid(pid)
        }
        return min(bounds.values())

    def _retrieve(self, bid: int) -> set[int] | None:
        """Qualifying tids in ``bid``; ``None`` means "every tuple" (no
        selection conditions — the base block table answers directly).

        Three layers answer, cheapest first: the query's own buffer, the
        shared cross-query cache, a cold fetch.  Only the cold fetch costs
        I/O — it is the only path that bumps ``result.blocks_accessed``.
        Decoded maps are shared read-only between the layers; nothing here
        may mutate them.
        """
        if not self._cells:
            return None
        qualifying: set[int] | None = None
        for cell in self._cells:
            tids = self._pseudo_block(cell, cell[0].pid_of_bid(bid)).get(bid)
            if not tids:
                return set()
            qualifying = (
                set(tids) if qualifying is None else qualifying.intersection(tids)
            )
            if not qualifying:
                return set()
        assert qualifying is not None
        return qualifying

    def _pseudo_block(self, cell: tuple, pid: int) -> dict[int, list[int]]:
        """One covering cell's pseudo block ``pid`` as ``{bid: [tid,
        ...]}``: from the query's buffer, else past it (and buffered)."""
        cuboid, values, buffer = cell
        by_bid = buffer.get(pid)
        if by_bid is None:
            # the buffer answers most requests of a query and moves no
            # metric; only what goes past it is measured for the span
            with _measured(self._tracer, self._retrieve_span):
                by_bid = buffer[pid] = self._fetch_pseudo_block(cuboid, values, pid)
        elif self.trace is not None:
            self.trace.pseudo_block_buffer_hits += 1
        return by_bid

    def _fetch_pseudo_block(self, cuboid, values, pid: int) -> dict[int, list[int]]:
        """One cell's pseudo block from the shared cache, else a cold fetch."""
        trace, pseudo_cache = self.trace, self.executor.pseudo_cache
        # The epoch makes entries cached against a compacted-away cuboid
        # generation unreachable even if the invalidation notification
        # itself is lost (e.g. a crash between the swap and the notify) —
        # lookups with the new epoch simply miss.  Name stays first:
        # invalidate_cuboids matches on key[0].
        cache_key = (cuboid.name, cuboid.epoch, values, pid)
        if pseudo_cache is not None:
            cached = pseudo_cache.get(cache_key)
            if cached is not None:
                if trace is not None:
                    trace.shared_cache_hits += 1
                return cached
        by_bid = cuboid.decode_pseudo_block(values, pid)
        self.result.blocks_accessed += 1
        if trace is not None:
            trace.pseudo_block_fetches += 1
        if pseudo_cache is not None:
            # insert only after a complete decode: a fault that aborts the
            # query raises before reaching here, so the shared cache never
            # sees partial state
            pseudo_cache.put(cache_key, by_bid)
        return by_bid

    def _score_block(
        self, bid: int, qualifying: set[int] | None
    ) -> list[tuple[float, int]]:
        """Fetch one base block and return its qualifying ``(score, tid)``s.

        The evaluate step minus the top-k update, which belongs to
        whoever drives the search (:meth:`run`, a cursor's buffer, a
        predecessor count).

        Returns every pair, unordered.  Without a shared block cache it
        hands ``qualifying`` to ``get_base_block``, which reads the
        block's pages as always but decodes only those tuples.  With one, the whole block is
        decoded once per table generation and every later visit filters
        the cached records — the same pairs in the same stored order,
        and the same logical counters: a hit saves physical work, not a
        block visit.  A family's shared records (:class:`SharedRetrieval`)
        answer before either, and a bid they hold is no block visit.
        """
        result, shared = self.result, self._records
        records = None if shared is None else shared.get(bid)
        if records is None:
            base_table = self.snapshot.base_table
            cache = self.executor.block_cache
            if cache is None:
                records = base_table.get_base_block(bid, qualifying)
            else:
                key = (base_table.uid, bid)
                block = cache.get(key)
                if block is None:
                    # insert only after the decode completes: a storage
                    # fault raises before the put, so no partial entry is
                    # shared
                    block = tuple(base_table.get_base_block(bid))
                    cache.put(key, block)
                records = (
                    block
                    if qualifying is None
                    else [record for record in block if record[0] in qualifying]
                )
            result.blocks_accessed += 1
            if self.trace is not None:
                self.trace.base_block_reads += 1
            if shared is not None:
                shared[bid] = records
        fn, positions = self._fn, self._positions
        scored: list[tuple[float, int]] = []
        for tid, values in records:
            point = [values[p] for p in positions]
            score = fn.score(point)
            result.tuples_examined += 1
            scored.append((score, tid))
        return scored

    def _open_pseudo_block(self, pid: int) -> None:
        """Open the lead cuboid's pseudo block ``pid``: push each bid it
        holds a tuple of the query's cell in, with its bound, and the
        block's unseen neighbors on the pseudo-block grid (Lemma 1)."""
        by_bid = self._pseudo_block(self._cells[0], pid)
        inserted, frontier = self._inserted, self._frontier
        bounds = self._pseudo_bids.pop(pid, None)
        for bid in by_bid:
            bound = self._block_bound(bid) if bounds is None else bounds[bid]
            heapq.heappush(frontier, (bound, _BID, bid))
        for neighbor in self._coarse.neighbors(pid):
            if neighbor not in inserted:
                inserted.add(neighbor)
                heapq.heappush(
                    frontier, (self._pseudo_bound(neighbor), _PSEUDO, neighbor)
                )

    def _expand_neighbors(self, bid: int) -> None:
        """Push ``bid``'s unseen neighbors onto the frontier (Lemma 1);
        the fine-grid walk of a query with no selection."""
        inserted, frontier = self._inserted, self._frontier
        for neighbor in self._grid.neighbors(bid):
            if neighbor not in inserted:
                inserted.add(neighbor)
                heapq.heappush(
                    frontier, (self._block_bound(neighbor), _BID, neighbor)
                )
