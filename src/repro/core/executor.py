"""Top-k query execution over a ranking cube (Section 3.2).

The algorithm runs the paper's four steps:

* **Pre-process** — pick the covering cuboid(s) for the query's selection
  dimensions (a single cuboid for a full cube; several, intersected, for
  ranking fragments — Section 4.2) and the base block table.
* **Search** — maintain the frontier ``H`` of candidate base blocks ordered
  by their lower bound ``f(bid)`` (minimum of the convex ranking function
  over the block's box).  The first candidate contains the global minimizer
  of ``f``; subsequent candidates come from Lemma 1's neighbor expansion.
* **Retrieve** — ``get_pseudo_block`` on each covering cuboid for the
  candidate bid's pid; results are buffered per pseudo block so sibling
  bids cost no further I/O; with several covering cuboids the tid lists are
  intersected (the semi-online computation of Section 4.2.2).
* **Evaluate** — ``get_base_block`` fetches real ranking values for the
  qualifying tids; exact scores feed the top-k list ``S``.

The loop stops when ``S_k <= S_unseen``, i.e. the k-th best seen score is
no worse than the best possible score of any unexamined block.

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
from dataclasses import dataclass, field

from ..obs.tracing import Tracer, maybe_span
from ..relational.query import QueryResult, ResultRow, TopKQuery
from ..relational.table import Table
from ..storage.device import StorageError
from ..vector.kernels import (
    apply_selection,
    block_bounds,
    eval_scores,
    gather_tids,
    topk_select,
)
from ..vector.layout import ColumnarBlock
from .cube import CubeError, RankingCube
from .cuboid import RankingCuboid

#: Reusable inert context for untraced executions (stateless, shareable).
_NULL_CM = nullcontext()


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
    """

    candidate_bids: list[int] = field(default_factory=list)
    pseudo_block_fetches: int = 0
    pseudo_block_buffer_hits: int = 0
    shared_cache_hits: int = 0
    bound_memo_hits: int = 0
    base_block_reads: int = 0
    empty_cells_skipped: int = 0
    frontier_peak: int = 0
    #: vector-path counters (zero on the row path): blocks scored through
    #: the batched kernels, and evaluate-step base blocks answered by the
    #: shared columnar cache instead of a fetch + decode
    vector_blocks: int = 0
    columnar_cache_hits: int = 0

    def cache_attribution(self) -> dict[str, int]:
        """Retrieve-step requests by answering layer (for ablation tables)."""
        return {
            "cold_fetches": self.pseudo_block_fetches,
            "query_buffer_hits": self.pseudo_block_buffer_hits,
            "shared_cache_hits": self.shared_cache_hits,
        }


@dataclass(frozen=True)
class _TraceBase:
    """Counter values at query start, so span attribution stays correct
    when a caller hands the executor an already-used :class:`ExecutorTrace`."""

    pseudo_block_fetches: int = 0
    pseudo_block_buffer_hits: int = 0
    shared_cache_hits: int = 0
    bound_memo_hits: int = 0
    base_block_reads: int = 0
    empty_cells_skipped: int = 0
    vector_blocks: int = 0
    columnar_cache_hits: int = 0

    @staticmethod
    def capture(trace: ExecutorTrace | None) -> "_TraceBase | None":
        if trace is None:
            return None
        return _TraceBase(
            pseudo_block_fetches=trace.pseudo_block_fetches,
            pseudo_block_buffer_hits=trace.pseudo_block_buffer_hits,
            shared_cache_hits=trace.shared_cache_hits,
            bound_memo_hits=trace.bound_memo_hits,
            base_block_reads=trace.base_block_reads,
            empty_cells_skipped=trace.empty_cells_skipped,
            vector_blocks=trace.vector_blocks,
            columnar_cache_hits=trace.columnar_cache_hits,
        )


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
    buffer_pseudo_blocks:
        The paper's retrieve-step buffering.  Disabling it (ablation) makes
        every bid request re-read its pseudo block.
    pseudo_cache:
        Optional shared :class:`~repro.serve.cache.PseudoBlockCache`
        consulted between the per-query buffer and a cold fetch.  The
        executor only *inserts* fully decoded blocks, so an aborted query
        cannot poison it.
    bound_memo:
        Optional shared :class:`~repro.serve.cache.BoundMemo` for frontier
        lower bounds.
    use_vector:
        Route the evaluate step and frontier-bound computation through
        the batched columnar kernels of :mod:`repro.vector` instead of
        the per-tuple row loops.  **Answers are byte-identical either
        way** (the kernels' bitwise contract, property-tested in
        ``tests/properties/test_vector_equivalence.py``); only the work
        shape changes.  NumPy accelerates the kernels when available; a
        pure-stdlib fallback keeps the switch valid without it.
    columnar_cache:
        Optional shared :class:`~repro.serve.cache.ColumnarBlockCache`:
        decoded columnar base blocks reused across queries (vector path
        only).  Logical counters (``blocks_accessed`` etc.) are
        unaffected by hits — the cache saves page I/O and decode work,
        attributed in ``trace.columnar_cache_hits``.

    The executor keeps no per-query state on ``self``, so one instance may
    be shared by concurrent threads **provided** its buffer pool is the
    thread-safe read path (see ``repro.storage.buffer``) — this is how
    :class:`repro.serve.QueryService` drives it.
    """

    def __init__(
        self,
        cube: RankingCube,
        relation: Table | None = None,
        buffer_pseudo_blocks: bool = True,
        pseudo_cache=None,
        bound_memo=None,
        use_vector: bool = False,
        columnar_cache=None,
    ):
        self.cube = cube
        self.relation = relation
        self.buffer_pseudo_blocks = buffer_pseudo_blocks
        self.pseudo_cache = pseudo_cache
        self.bound_memo = bound_memo
        self.use_vector = bool(use_vector)
        self.columnar_cache = columnar_cache
        # registry-counter memo for the executor.vector.* series, keyed
        # by registry identity (the cached Counter pins its registry, so
        # the id cannot be recycled while the entry lives)
        self._vector_counter_memo: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    def execute(
        self,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        tracer: Tracer | None = None,
    ) -> QueryResult:
        """Run one top-k query and return its ordered answer.

        ``trace`` collects per-query counters (cheap, always available);
        ``tracer`` additionally builds an observability span tree — plan →
        search (retrieve/evaluate aggregates) → delta-merge — with every
        retrieve attributed to the layer that answered it and per-span
        watched-metric I/O deltas (see :mod:`repro.obs.tracing`).  Span
        I/O attribution is exact for serial execution.
        """
        if tracer is None:
            return self._execute_traced(query, trace, None, None)
        if trace is None:
            trace = ExecutorTrace()
        attrs = dict(
            k=query.k,
            selections=dict(sorted(query.selections.items())),
            ranking=",".join(query.ranking.dims),
        )
        if self.use_vector:
            # only stamped in vector mode, so row-path golden traces keep
            # their exact historical attribute set
            attrs["executor"] = "vector"
        with tracer.span("query", **attrs) as query_span:
            return self._execute_traced(query, trace, tracer, query_span)

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

    def _execute_traced(
        self,
        query: TopKQuery,
        trace: ExecutorTrace | None,
        tracer: Tracer | None,
        query_span,
    ) -> QueryResult:
        # One consistent snapshot per query: every read below (covering
        # cuboids, base blocks, delta) resolves against this view, so a
        # concurrent compaction swap cannot hand us a mix of old and new
        # state mid-execution.
        state = self.cube.snapshot()
        grid = state.grid
        fn = query.ranking

        # --- pre-process (plan): covering cuboids + start block ----------
        with maybe_span(tracer, "plan") as plan_span:
            missing = [d for d in fn.dims if d not in grid.dims]
            if missing:
                raise CubeError(f"ranking dimensions {missing} not in the cube")
            if self.relation is not None:
                query.validate_against(self.relation.schema)
            with maybe_span(tracer, "cuboid_selection") as cuboid_span:
                covering = state.covering_cuboids(query.selection_names)
                if cuboid_span is not None:
                    cuboid_span.attributes["covering"] = tuple(
                        c.name for c in covering
                    )
                    cuboid_span.add("covering_cuboids", len(covering))
            cell_values = [
                tuple(query.selections[d] for d in cuboid.dims) for cuboid in covering
            ]
            positions = grid.project(fn.dims)
            memo = (
                self.bound_memo.group(fn, grid) if self.bound_memo is not None else None
            )
            start_bid = self._start_block(fn, grid, positions)
            if plan_span is not None:
                plan_span.add("grid_blocks", grid.num_blocks)
                plan_span.attributes["start_bid"] = start_bid

        # --- search state -------------------------------------------------
        trace_base = _TraceBase.capture(trace)
        # top-k seen scores as a max-heap of (-score, -tid); see _push_topk
        # for the tie-breaking contract
        topk: list[tuple[float, int]] = []
        # frontier of candidate blocks as a min-heap of (f(bid), bid)
        frontier: list[tuple[float, int]] = [
            (self._block_bound(grid, start_bid, fn, positions, memo, trace), start_bid)
        ]
        inserted = {start_bid}
        # per-cuboid buffer: pid -> {bid: [tid, ...]}
        buffers: list[dict[int, dict[int, list[int]]]] = [{} for _ in covering]

        result = QueryResult()
        try:
            with maybe_span(tracer, "block_frontier") as search_span:
                retrieve_span = (
                    search_span.child("retrieve") if search_span is not None else None
                )
                # the vector path renames the aggregate so traces make the
                # executing engine explicit (and goldens can diff on it)
                evaluate_name = "evaluate_batch" if self.use_vector else "evaluate"
                evaluate_span = (
                    search_span.child(evaluate_name)
                    if search_span is not None
                    else None
                )
                while frontier:
                    s_unseen = frontier[0][0]
                    # strict <: a block whose lower bound *ties* the kth score
                    # may still hold an equal-score tuple with a smaller tid,
                    # which the tie-breaking contract requires us to keep
                    if len(topk) >= query.k and -topk[0][0] < s_unseen:
                        break
                    _bound, bid = heapq.heappop(frontier)
                    result.candidates_examined += 1
                    if trace is not None:
                        trace.candidate_bids.append(bid)

                    with _measured(tracer, retrieve_span):
                        qualifying = self._retrieve(
                            bid, covering, cell_values, buffers, result, trace
                        )
                    if qualifying is None or qualifying:
                        with _measured(tracer, evaluate_span):
                            self._evaluate(
                                state.base_table, bid, qualifying, fn, positions,
                                query.k, topk, result, trace,
                            )
                    elif trace is not None:
                        trace.empty_cells_skipped += 1

                    self._expand_neighbors(
                        grid, bid, fn, positions, memo, trace, frontier, inserted
                    )
                    if trace is not None:
                        trace.frontier_peak = max(trace.frontier_peak, len(frontier))
                if search_span is not None:
                    assert trace is not None and trace_base is not None
                    search_span.add_many(
                        candidates_examined=result.candidates_examined,
                        frontier_peak=trace.frontier_peak,
                        empty_cells_skipped=(
                            trace.empty_cells_skipped - trace_base.empty_cells_skipped
                        ),
                        bound_memo_hits=(
                            trace.bound_memo_hits - trace_base.bound_memo_hits
                        ),
                    )
                    retrieve_span.add_many(
                        cold_fetches=(
                            trace.pseudo_block_fetches
                            - trace_base.pseudo_block_fetches
                        ),
                        query_buffer_hits=(
                            trace.pseudo_block_buffer_hits
                            - trace_base.pseudo_block_buffer_hits
                        ),
                        shared_cache_hits=(
                            trace.shared_cache_hits - trace_base.shared_cache_hits
                        ),
                    )
                    evaluate_counts = dict(
                        base_block_reads=(
                            trace.base_block_reads - trace_base.base_block_reads
                        ),
                        tuples_examined=result.tuples_examined,
                    )
                    if self.use_vector:
                        # vector-only keys: row-path goldens never grow them
                        evaluate_counts["vector_blocks"] = (
                            trace.vector_blocks - trace_base.vector_blocks
                        )
                        evaluate_counts["columnar_cache_hits"] = (
                            trace.columnar_cache_hits
                            - trace_base.columnar_cache_hits
                        )
                    evaluate_span.add_many(**evaluate_counts)

            # Merge the cube's delta store: tuples appended after the build
            # are held in memory and scored against every query (see
            # RankingCube.refresh_delta).
            with maybe_span(tracer, "delta_merge") as delta_span:
                delta_examined = 0
                for tid, rank_values in state.delta_matches(
                    dict(query.selections)
                ):
                    point = [rank_values[d] for d in fn.dims]
                    score = fn.score(point)
                    result.tuples_examined += 1
                    delta_examined += 1
                    _push_topk(topk, query.k, score, tid)
                if delta_span is not None:
                    delta_span.add("delta_tuples_examined", delta_examined)
        except StorageError as exc:
            raise QueryAbortedError(
                f"query aborted after {result.blocks_accessed} block "
                f"fetch(es): {exc}",
                partial_rows=_rows_from_heap(topk),
                blocks_accessed=result.blocks_accessed,
                cause=exc,
            ) from exc

        rows = _rows_from_heap(topk)
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

    def explain(self, query: TopKQuery) -> "QueryPlan":
        """Describe how the query would execute, without executing it.

        Resolves the covering cuboids, the start block, and the frontier's
        initial bound — the pre-process step plus the first search step —
        and packages them with cost-model context (block/cell geometry)
        plus the caching layers the retrieve step will consult.
        """
        state = self.cube.snapshot()
        grid = state.grid
        fn = query.ranking
        missing = [d for d in fn.dims if d not in grid.dims]
        if missing:
            raise CubeError(f"ranking dimensions {missing} not in the cube")
        covering = state.covering_cuboids(query.selection_names)
        positions = grid.project(fn.dims)
        start_bid = self._start_block(fn, grid, positions)
        layers = []
        if self.buffer_pseudo_blocks:
            layers.append("per-query pseudo-block buffer")
        if self.pseudo_cache is not None:
            layers.append("shared pseudo-block cache")
        if self.bound_memo is not None and fn.cache_key() is not None:
            layers.append("shared bound memo")
        return QueryPlan(
            covering_cuboids=tuple(c.name for c in covering),
            intersection_required=len(covering) > 1,
            start_bid=start_bid,
            start_bound=self._block_bound(grid, start_bid, fn, positions, None, None),
            grid_blocks=grid.num_blocks,
            scale_factors=tuple(c.scale_factor for c in covering),
            delta_tuples=state.delta_size,
            cache_layers=tuple(layers),
        )

    # ------------------------------------------------------------------
    # the four steps
    # ------------------------------------------------------------------
    def _start_block(self, fn, grid, positions: tuple[int, ...]) -> int:
        """Block containing the global minimizer of the ranking function."""
        lower, upper = grid.full_box()
        sub_lower = [lower[p] for p in positions]
        sub_upper = [upper[p] for p in positions]
        minimizer = fn.argmin_over_box(sub_lower, sub_upper)
        point = list(lower)  # unranked dimensions start at the grid's low edge
        for value, p in zip(minimizer, positions):
            point[p] = value
        return grid.locate(point)

    def _block_bound(
        self,
        grid,
        bid: int,
        fn,
        positions: tuple[int, ...],
        memo: dict[int, float] | None = None,
        trace: ExecutorTrace | None = None,
    ) -> float:
        """``f(bid)``: minimum of the ranking function over the block box.

        With a shared bound memo attached, each (function, grid, bid)
        minimization happens once across the whole query stream.
        """
        if memo is not None:
            cached = self.bound_memo.lookup(memo, bid)
            if cached is not None:
                if trace is not None:
                    trace.bound_memo_hits += 1
                return cached
        lower, upper = grid.sub_box(bid, positions)
        bound = fn.min_over_box(lower, upper)
        if memo is not None:
            self.bound_memo.store(memo, bid, bound)
        return bound

    def _retrieve(
        self,
        bid: int,
        covering: list[RankingCuboid],
        cell_values: list[tuple[int, ...]],
        buffers: list[dict[int, dict[int, list[int]]]],
        result: QueryResult,
        trace: ExecutorTrace | None,
    ) -> set[int] | None:
        """Qualifying tids in ``bid``; ``None`` means "every tuple" (no
        selection conditions — the base block table answers directly).

        Three layers answer, cheapest first: the query's own buffer, the
        shared cross-query cache, a cold fetch.  Only the cold fetch costs
        I/O — it is the only path that bumps ``result.blocks_accessed``.
        Decoded maps are shared read-only between the layers; nothing here
        may mutate them.
        """
        if not covering:
            return None
        qualifying: set[int] | None = None
        for cuboid, values, buffer in zip(covering, cell_values, buffers):
            pid = cuboid.pid_of_bid(bid)
            by_bid = buffer.get(pid)
            if by_bid is None:
                # The epoch makes entries cached against a compacted-away
                # cuboid generation unreachable even if the invalidation
                # notification itself is lost (e.g. a crash between the
                # swap and the notify) — lookups with the new epoch simply
                # miss.  Name stays first: invalidate_cuboids matches on
                # key[0].
                cache_key = (cuboid.name, cuboid.epoch, values, pid)
                cached = (
                    self.pseudo_cache.get(cache_key)
                    if self.pseudo_cache is not None
                    else None
                )
                if cached is not None:
                    by_bid = cached
                    if trace is not None:
                        trace.shared_cache_hits += 1
                else:
                    by_bid = cuboid.decode_pseudo_block(values, pid)
                    result.blocks_accessed += 1
                    if trace is not None:
                        trace.pseudo_block_fetches += 1
                    if self.pseudo_cache is not None:
                        # insert only after a complete decode: a fault that
                        # aborts the query raises before reaching here, so
                        # the shared cache never sees partial state
                        self.pseudo_cache.put(cache_key, by_bid)
                if self.buffer_pseudo_blocks:
                    buffer[pid] = by_bid
            elif trace is not None:
                trace.pseudo_block_buffer_hits += 1
            tids = set(by_bid.get(bid, ()))
            qualifying = tids if qualifying is None else (qualifying & tids)
            if not qualifying:
                return set()
        assert qualifying is not None
        return qualifying

    def _evaluate(
        self,
        base_table,
        bid: int,
        qualifying: set[int] | None,
        fn,
        positions: tuple[int, ...],
        k: int,
        topk: list[tuple[float, int]],
        result: QueryResult,
        trace: ExecutorTrace | None,
    ) -> None:
        """Fetch the base block, score qualifying tuples, update top-k."""
        for score, tid in self._score_block(
            base_table, bid, qualifying, fn, positions, result, trace, k=k
        ):
            _push_topk(topk, k, score, tid)

    def _score_block(
        self,
        base_table,
        bid: int,
        qualifying: set[int] | None,
        fn,
        positions: tuple[int, ...],
        result: QueryResult,
        trace: ExecutorTrace | None,
        k: int | None = None,
    ) -> list[tuple[float, int]]:
        """Fetch one base block and return its qualifying ``(score, tid)``s.

        The evaluate step minus the top-k update: the serial path pushes
        the pairs into its own heap, while :class:`ProgressiveSearch`
        streams them out to a global merger that owns the heap.

        ``k`` lets the vector path truncate to the block-local best ``k``
        (sorted, ties tid-ascending) — answer-preserving, since at most
        the best ``k`` of any one block can reach a global top-k.  The
        row path ignores it and returns every pair, unordered, exactly as
        before.
        """
        if self.use_vector:
            return self._score_block_vector(
                base_table, bid, qualifying, fn, positions, result, trace, k
            )
        records = base_table.get_base_block(bid)
        result.blocks_accessed += 1
        if trace is not None:
            trace.base_block_reads += 1
        scored: list[tuple[float, int]] = []
        for tid, values in records:
            if qualifying is not None and tid not in qualifying:
                continue
            point = [values[p] for p in positions]
            score = fn.score(point)
            result.tuples_examined += 1
            scored.append((score, tid))
        return scored

    def _score_block_vector(
        self,
        base_table,
        bid: int,
        qualifying: set[int] | None,
        fn,
        positions: tuple[int, ...],
        result: QueryResult,
        trace: ExecutorTrace | None,
        k: int | None,
    ) -> list[tuple[float, int]]:
        """Columnar form of :meth:`_score_block` (same logical counters).

        The block is decoded once into struct-of-arrays form (possibly
        served by the shared columnar cache), the selection applied as a
        batched membership test, and every qualifying tuple scored in one
        ``eval_batch`` call.  ``blocks_accessed``/``base_block_reads``
        move in lockstep with the row path *even on a columnar cache
        hit* — the hit saves physical work, not a logical block visit —
        which is what keeps full :class:`QueryResult` equality exact.
        """
        block = self._columnar_block(base_table, bid, trace)
        result.blocks_accessed += 1
        if trace is not None:
            trace.base_block_reads += 1
        if len(block) == 0:
            return []
        indices = apply_selection(block, qualifying)
        tids = gather_tids(block, indices)
        n = len(tids)
        if n == 0:
            return []
        scores = eval_scores(fn, block, positions, indices)
        result.tuples_examined += n
        if trace is not None:
            trace.vector_blocks += 1
        self._bump_vector_counters(base_table, n)
        return topk_select(scores, tids, k)

    def _columnar_block(
        self, base_table, bid: int, trace: ExecutorTrace | None
    ) -> ColumnarBlock:
        """Decode ``bid`` to columnar form, via the shared cache if any.

        Cache keys pair the table's never-reused ``uid`` with the bid, so
        blocks decoded from a compacted-away table generation can never
        satisfy a lookup against its replacement.
        """
        cache = self.columnar_cache
        key = (base_table.uid, bid)
        if cache is not None:
            cached = cache.get(key)
            if cached is not None:
                if trace is not None:
                    trace.columnar_cache_hits += 1
                return cached
        block = ColumnarBlock.from_records(
            base_table.get_base_block(bid), base_table.grid.num_dims
        )
        if cache is not None:
            cache.put(key, block)
        return block

    def _bump_vector_counters(self, base_table, tuples: int) -> None:
        """Advance the ``executor.vector.*`` registry series, if metered."""
        registry = getattr(base_table.pool, "registry", None)
        if registry is None:
            return
        counters = self._vector_counter_memo.get(id(registry))
        if counters is None:
            counters = (
                registry.counter("executor.vector.blocks"),
                registry.counter("executor.vector.tuples"),
            )
            self._vector_counter_memo[id(registry)] = counters
        counters[0].inc()
        counters[1].inc(tuples)

    def _expand_neighbors(
        self,
        grid,
        bid: int,
        fn,
        positions: tuple[int, ...],
        memo: dict[int, float] | None,
        trace: ExecutorTrace | None,
        frontier: list[tuple[float, int]],
        inserted: set[int],
    ) -> None:
        """Push ``bid``'s unseen neighbors onto the frontier (Lemma 1).

        The vector path memo-checks every fresh neighbor first, then
        computes the remaining bounds in one :func:`block_bounds` batch.
        Push order differs from the row path's one-at-a-time loop, but
        heap *pop* order is deterministic for a given entry set (bounds
        are pure functions of bid and ``(bound, bid)`` entries are
        unique), so the search examines identical block sequences.
        """
        fresh = [nb for nb in grid.neighbors(bid) if nb not in inserted]
        if not fresh:
            return
        inserted.update(fresh)
        if not self.use_vector:
            for neighbor in fresh:
                heapq.heappush(
                    frontier,
                    (
                        self._block_bound(grid, neighbor, fn, positions, memo, trace),
                        neighbor,
                    ),
                )
            return
        pending: list[int] = []
        for neighbor in fresh:
            cached = (
                self.bound_memo.lookup(memo, neighbor) if memo is not None else None
            )
            if cached is not None:
                if trace is not None:
                    trace.bound_memo_hits += 1
                heapq.heappush(frontier, (cached, neighbor))
            else:
                pending.append(neighbor)
        if not pending:
            return
        for neighbor, bound in zip(
            pending, block_bounds(grid, pending, fn, positions)
        ):
            if memo is not None:
                self.bound_memo.store(memo, neighbor, bound)
            heapq.heappush(frontier, (bound, neighbor))

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


#: Sentinel: ``ProgressiveSearch(block_k=...)`` default, meaning
#: "truncate each block's scores to the query's k" (the top-k fast path).
_BLOCK_K_QUERY = object()


class ProgressiveSearch:
    """Stepwise form of the progressive search, shared by every consumer
    that needs the frontier as a *stream* rather than a finished top-k:
    scatter-gather shard merging, any-k enumeration cursors
    (:class:`repro.core.anyk.AnyKCursor`), and reverse top-k counting
    (:mod:`repro.core.reverse`).

    Wraps one executor + query as a stream of scored candidates: each
    :meth:`step` pops the frontier's best block, runs retrieve + evaluate
    on it, expands its neighbors (Lemma 1), and returns the ``(score,
    tid)`` pairs found there.  Between steps, :attr:`best_unseen` is a
    certified lower bound on the score of every tuple this search has not
    yet returned — except the delta store, whose rows carry no block
    bound and must be merged unconditionally via :meth:`delta_rows`.

    A global merger (see :class:`repro.serve.sharded.ShardedQueryService`)
    can therefore stop stepping a shard as soon as its k-th best seen
    score is strictly better than the shard's ``best_unseen``: any tuple
    still unreturned scores at least ``best_unseen`` and can never
    displace a kept entry under the tid-ascending tie-breaking contract.
    Stepping *more* than necessary only changes amortization, never the
    answer — scoring is deterministic and :func:`_push_topk` is
    insertion-order independent.

    ``block_k`` controls per-block truncation: the default keeps only
    each block's best ``query.k`` scores (sufficient for a top-k answer,
    and what the vector engine's batched ``topk_select`` exploits), while
    ``block_k=None`` returns *every* qualifying tuple of each block —
    required by consumers that rank past k (enumeration) or count
    arbitrary predecessors (reverse top-k).

    The search pins one consistent cube snapshot for its whole lifetime
    — later appends or compaction epoch bumps never leak in — and keeps
    all state on itself, so many instances may run concurrently over one
    (thread-safe) executor.  Storage faults propagate from :meth:`step`
    as typed :class:`~repro.storage.device.StorageError`\\ s; the search
    object stays consistent and the caller decides whether to abort the
    whole query.
    """

    def __init__(
        self,
        executor: RankingCubeExecutor,
        query: TopKQuery,
        trace: ExecutorTrace | None = None,
        block_k: int | None | object = _BLOCK_K_QUERY,
    ):
        self.executor = executor
        self.query = query
        self.trace = trace
        self.block_k = query.k if block_k is _BLOCK_K_QUERY else block_k
        state = executor.cube.snapshot()
        grid = state.grid
        fn = query.ranking
        missing = [d for d in fn.dims if d not in grid.dims]
        if missing:
            raise CubeError(f"ranking dimensions {missing} not in the cube")
        if executor.relation is not None:
            query.validate_against(executor.relation.schema)
        self._state = state
        self._grid = grid
        self._fn = fn
        self._covering = state.covering_cuboids(query.selection_names)
        self._cell_values = [
            tuple(query.selections[d] for d in cuboid.dims)
            for cuboid in self._covering
        ]
        self._positions = grid.project(fn.dims)
        self._memo = (
            executor.bound_memo.group(fn, grid)
            if executor.bound_memo is not None
            else None
        )
        start_bid = executor._start_block(fn, grid, self._positions)
        self._frontier: list[tuple[float, int]] = [
            (
                executor._block_bound(
                    grid, start_bid, fn, self._positions, self._memo, trace
                ),
                start_bid,
            )
        ]
        self._inserted = {start_bid}
        self._buffers: list[dict[int, dict[int, list[int]]]] = [
            {} for _ in self._covering
        ]
        self.result = QueryResult()

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """True once every block of this search's grid has been examined."""
        return not self._frontier

    @property
    def best_unseen(self) -> float:
        """Lower bound on every not-yet-returned block tuple (inf when done)."""
        return self._frontier[0][0] if self._frontier else float("inf")

    def step(self) -> list[tuple[float, int]]:
        """Examine the frontier's best block; return its scored tuples.

        Returns an empty list when the block held no qualifying tuples
        *or* the search is exhausted — check :attr:`exhausted` to tell
        the two apart.
        """
        if not self._frontier:
            return []
        executor = self.executor
        _bound, bid = heapq.heappop(self._frontier)
        self.result.candidates_examined += 1
        if self.trace is not None:
            self.trace.candidate_bids.append(bid)
        qualifying = executor._retrieve(
            bid, self._covering, self._cell_values, self._buffers,
            self.result, self.trace,
        )
        scored: list[tuple[float, int]] = []
        if qualifying is None or qualifying:
            scored = executor._score_block(
                self._state.base_table, bid, qualifying, self._fn,
                self._positions, self.result, self.trace, k=self.block_k,
            )
        elif self.trace is not None:
            self.trace.empty_cells_skipped += 1
        executor._expand_neighbors(
            self._grid, bid, self._fn, self._positions, self._memo,
            self.trace, self._frontier, self._inserted,
        )
        if self.trace is not None:
            self.trace.frontier_peak = max(
                self.trace.frontier_peak, len(self._frontier)
            )
        return scored

    def delta_rows(self) -> list[tuple[float, int]]:
        """Scored matches from the snapshot's delta store (no block bound)."""
        rows: list[tuple[float, int]] = []
        for tid, rank_values in self._state.delta_matches(
            dict(self.query.selections)
        ):
            point = [rank_values[d] for d in self._fn.dims]
            score = self._fn.score(point)
            self.result.tuples_examined += 1
            rows.append((score, tid))
        return rows


def _push_topk(topk: list[tuple[float, int]], k: int, score: float, tid: int) -> None:
    """Offer one scored tuple to the top-k max-heap.

    Entries are ``(-score, -tid)`` so the heap root is the *worst* kept
    tuple — largest score, and among equal scores the largest tid.  A new
    tuple displaces the root when it is strictly better under the same
    order, so ties on the k-th score break toward the smaller tid: the
    retained set and the presented order (see :func:`_unpack_topk`) agree
    on tid-ascending tie-breaking, the contract documented on
    :class:`~repro.relational.query.QueryResult`.
    """
    entry = (-score, -tid)
    if len(topk) < k:
        heapq.heappush(topk, entry)
    elif entry > topk[0]:
        heapq.heapreplace(topk, entry)


def _unpack_topk(topk: list[tuple[float, int]]) -> list[tuple[float, int]]:
    """(score, tid) pairs, best first, from the internal max-heap form."""
    return sorted((-neg_score, -neg_tid) for neg_score, neg_tid in topk)


# Re-expose with the right orientation for ResultRow construction.
def _rows_from_heap(topk: list[tuple[float, int]]) -> list[ResultRow]:
    return [ResultRow(tid=tid, score=score) for score, tid in _unpack_topk(topk)]
