"""Concurrent query serving over a ranking cube.

:class:`QueryService` is the front end the ROADMAP's "heavy traffic"
north star asks for: a worker thread pool draining a query stream through
one shared :class:`~repro.core.executor.RankingCubeExecutor`, with the
cross-query caches of :mod:`repro.serve.cache` attached:

* the **shared pseudo-block cache** — repeated selections skip page I/O
  and decode work entirely,
* the **bound memo** — each ``f(bid)`` lower bound is minimized once per
  (ranking function, grid) across the whole stream,
* the **block cache** — each base block is decoded once per table
  generation, so a warm stream's evaluate step skips the directory
  walk, the page gets and the decode,
* the **thread-safe buffer pool** underneath (lock-striped page latches),
  so concurrent cold reads stay correct and metered.

The service is an *any-time, many-query* regime in the sense of the
ranked-enumeration literature: answers are exact (identical to serial
execution — property-tested), only the amortization changes.

Failure semantics: a query that exhausts the storage retry budget aborts
with :class:`~repro.core.executor.QueryAbortedError` carried by its
future; the shared caches only ever receive fully decoded entries, so an
aborted query cannot poison state used by its neighbors.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from ..core.cube import RankingCube
from ..core.executor import ExecutorTrace, QueryAbortedError, RankingCubeExecutor
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, Tracer
from ..relational.query import QueryResult, TopKQuery
from ..relational.table import Table
from .cache import BlockCache, BoundMemo, PseudoBlockCache

#: Retained span trees when ``trace_spans`` is enabled (a ring buffer —
#: profiling wants recent queries, not unbounded memory).
DEFAULT_SPAN_CAPACITY = 256


class ServiceClosedError(RuntimeError):
    """Raised when submitting to a closed :class:`QueryService`."""


class ServiceOverloadedError(RuntimeError):
    """Admission control rejected a query: too many already in flight.

    Raised by services configured with ``max_inflight`` instead of
    queueing without bound — the caller sees backpressure immediately
    and can shed, retry, or route elsewhere.
    """


def _storage_registry(cube: RankingCube) -> MetricsRegistry | None:
    """The metrics registry of the storage tree under ``cube``, if any.

    Reached through the base table's buffer pool; fragmented cubes and
    cubes built over registry-less storage return ``None`` and the
    service falls back to a private registry.
    """
    pool = getattr(getattr(cube, "base_table", None), "pool", None)
    return getattr(pool, "registry", None)


@dataclass(frozen=True)
class QueryRecord:
    """Per-query accounting kept by the service (latency + I/O + caches)."""

    latency_s: float
    blocks_accessed: int
    candidates_examined: int
    tuples_examined: int
    cold_fetches: int
    query_buffer_hits: int
    shared_cache_hits: int
    bound_memo_hits: int
    base_block_reads: int
    aborted: bool = False


@dataclass
class ServiceStats:
    """Aggregate view over every query the service has finished."""

    records: list[QueryRecord] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.records)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.records if r.aborted)

    def latency_percentile(self, fraction: float) -> float:
        """Latency (seconds) at a quantile in [0, 1] (nearest-rank)."""
        if not self.records:
            return 0.0
        ordered = sorted(r.latency_s for r in self.records)
        rank = math.ceil(fraction * len(ordered)) - 1
        return ordered[min(len(ordered) - 1, max(0, rank))]

    def mean(self, attribute: str) -> float:
        if not self.records:
            return 0.0
        return sum(getattr(r, attribute) for r in self.records) / len(self.records)

    def total(self, attribute: str) -> int:
        return sum(getattr(r, attribute) for r in self.records)


class QueryService:
    """A thread-pooled, cache-sharing query server over one ranking cube.

    Parameters
    ----------
    cube:
        The cube to serve (full or fragmented).  The service registers its
        pseudo-block cache as an invalidation listener, so delta appends
        (:meth:`RankingCube.refresh_delta`) atomically drop any cached tid
        list that the append could have extended.
    relation:
        Original relation, for queries that project extra attributes.
    workers:
        Worker threads.  ``1`` is a valid (serial, still cache-sharing)
        configuration.
    pseudo_cache / bound_memo / block_cache:
        Injected shared caches; built with defaults when omitted.  Passing
        ``None`` explicitly and ``share_caches=False`` disables a layer.
        The block cache needs no invalidation hook: it is keyed by the
        base table's never-reused ``uid``, and maintenance installs a new
        table rather than mutating the old one.
    share_caches:
        Ablation switch: ``False`` serves concurrently but without the
        cross-query layers (per-query buffers still apply).
    registry:
        Metrics spine the service publishes to (queries, aborts, latency
        histogram) and hands to default-constructed caches.  Defaults to
        the storage tree's registry reached through the cube, so *every*
        layer under one service accounts into one registry.
    trace_spans:
        When true, each query is executed under a per-query
        :class:`~repro.obs.tracing.Tracer` and its completed span tree is
        retained in :attr:`spans` (a bounded ring).  Span structure and
        logical counters are exact; watched-metric I/O deltas include
        concurrent neighbours' traffic (see :mod:`repro.obs.tracing`).
    compactor:
        An externally-owned :class:`~repro.core.compaction.CubeCompactor`
        to associate with this service (exposed as :attr:`compactor`;
        lifecycle stays with the caller).
    auto_compact_delta:
        Convenience: when set, the service creates, starts and owns a
        background compactor that drains the cube's delta store once it
        holds at least this many tuples.  Query traffic keeps flowing
        while it runs — swaps are atomic under the cube's state lock and
        the invalidation-listener protocol drops stale cache entries.
        :meth:`close` stops it.  Mutually exclusive with ``compactor``.
    """

    def __init__(
        self,
        cube: RankingCube,
        relation: Table | None = None,
        workers: int = 4,
        pseudo_cache: PseudoBlockCache | None = None,
        bound_memo: BoundMemo | None = None,
        share_caches: bool = True,
        buffer_pseudo_blocks: bool = True,
        registry: MetricsRegistry | None = None,
        trace_spans: bool = False,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        compactor=None,
        auto_compact_delta: int | None = None,
        block_cache: BlockCache | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if compactor is not None and auto_compact_delta is not None:
            raise ValueError(
                "pass either a compactor or auto_compact_delta, not both"
            )
        self.cube = cube
        self.workers = workers
        if registry is None:
            registry = _storage_registry(cube)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_spans = trace_spans
        self.span_capacity = span_capacity
        self.spans: list[Span] = []
        if share_caches:
            # explicit None tests: an *empty* injected cache is falsy
            # (it has __len__), yet must still be the one we use
            self.pseudo_cache = (
                pseudo_cache
                if pseudo_cache is not None
                else PseudoBlockCache(registry=self.registry)
            )
            self.bound_memo = (
                bound_memo
                if bound_memo is not None
                else BoundMemo(registry=self.registry)
            )
            self.block_cache = (
                block_cache
                if block_cache is not None
                else BlockCache(registry=self.registry)
            )
        else:
            self.pseudo_cache = None
            self.bound_memo = None
            self.block_cache = None
        self._queries_counter = self.registry.counter("serve.service.queries")
        self._searches_counter = self.registry.counter(
            "serve.service.searches_opened"
        )
        self._reverse_counter = self.registry.counter(
            "serve.service.reverse_queries"
        )
        self._aborted_counter = self.registry.counter("serve.service.aborted")
        self._latency_hist = self.registry.histogram("serve.service.latency_s")
        self._blocks_counter = self.registry.counter("serve.service.blocks_accessed")
        self._candidates_counter = self.registry.counter(
            "serve.service.candidates_examined"
        )
        self.executor = RankingCubeExecutor(
            cube,
            relation,
            buffer_pseudo_blocks=buffer_pseudo_blocks,
            pseudo_cache=self.pseudo_cache,
            bound_memo=self.bound_memo,
            block_cache=self.block_cache,
        )
        self.stats = ServiceStats()
        self._stats_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._closed = False
        if self.pseudo_cache is not None:
            self._listener = self.pseudo_cache.invalidate_cuboids
            cube.add_invalidation_listener(self._listener)
        else:
            self._listener = None
        self.compactor = compactor
        self._owns_compactor = False
        if auto_compact_delta is not None:
            from ..core.compaction import CubeCompactor

            pool = getattr(getattr(cube, "base_table", None), "pool", None)
            if pool is None:
                raise ValueError(
                    "auto_compact_delta needs a cube whose base table "
                    "exposes its buffer pool"
                )
            self.compactor = CubeCompactor(
                cube, pool, min_delta=auto_compact_delta
            ).start()
            self._owns_compactor = True

    # ------------------------------------------------------------------
    # serving APIs
    # ------------------------------------------------------------------
    def submit(self, query: TopKQuery) -> "Future[QueryResult]":
        """Enqueue one query; the future resolves to its :class:`QueryResult`.

        A storage-fault abort surfaces as the future's exception
        (:class:`QueryAbortedError`, partial results attached).
        """
        if self._closed:
            raise ServiceClosedError("QueryService is closed")
        return self._pool.submit(self._run_one, query)

    def run_batch(self, queries) -> list[QueryResult]:
        """Run a batch concurrently, returning answers in request order."""
        futures = [self.submit(q) for q in queries]
        return [f.result() for f in futures]

    def open_search(self, query: TopKQuery):
        """Open a resumable any-k cursor over the shared executor.

        Unlike :meth:`submit` the cursor is caller-stepped, not pooled:
        the caller pulls certified rank-order rows past ``query.k`` via
        :meth:`~repro.core.anyk.AnyKCursor.next_batch` at its own pace,
        against the cube snapshot pinned at open time.  Storage faults
        surface from ``next_batch`` as typed
        :class:`~repro.core.executor.QueryAbortedError`.
        """
        if self._closed:
            raise ServiceClosedError("QueryService is closed")
        self._searches_counter.inc()
        tracer = Tracer(self.registry) if self.trace_spans else None
        cursor = self.executor.open_search(
            query, trace=ExecutorTrace(), tracer=tracer
        )
        if tracer is not None:
            def _retain():
                # fold the open/batch spans under one "anyk_query" root
                # (same shape the sharded cursor builds at close time)
                children = tracer.roots[:]
                tracer.roots.clear()
                with tracer.span(
                    "anyk_query",
                    k=query.k,
                    selections=dict(sorted(query.selections.items())),
                    ranking=",".join(query.ranking.dims),
                ) as root:
                    root.children.extend(children)
                    live = cursor.search.result
                    root.add_many(
                        rows=cursor.rank,
                        blocks_accessed=live.blocks_accessed,
                        candidates_examined=live.candidates_examined,
                    )
                self._retain_spans(tracer)

            cursor._on_close = _retain
        return cursor

    def submit_reverse(self, query):
        """Enqueue one reverse top-k query
        (:class:`~repro.core.reverse.ReverseTopKQuery`); the future
        resolves to a :class:`~repro.core.reverse.ReverseTopKResult`.
        Aborts surface as typed :class:`QueryAbortedError` exactly like
        forward queries."""
        if self._closed:
            raise ServiceClosedError("QueryService is closed")
        return self._pool.submit(self._run_reverse, query)

    def _run_reverse(self, query):
        from ..core.reverse import reverse_topk

        trace = ExecutorTrace()
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        self._reverse_counter.inc()
        try:
            result = reverse_topk(
                self.executor, query, trace=trace, tracer=tracer
            )
        except QueryAbortedError as exc:
            self._retain_spans(tracer)
            self._record(
                trace,
                time.perf_counter() - started,
                blocks=exc.blocks_accessed,
                candidates=len(trace.candidate_bids),
                tuples=0,
                aborted=True,
            )
            raise
        self._retain_spans(tracer)
        self._record(
            trace,
            time.perf_counter() - started,
            blocks=result.blocks_accessed,
            candidates=result.candidates_examined,
            tuples=result.tuples_examined,
            aborted=False,
        )
        return result

    def _run_one(self, query: TopKQuery) -> QueryResult:
        trace = ExecutorTrace()
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        try:
            result = self.executor.execute(query, trace=trace, tracer=tracer)
        except QueryAbortedError as exc:
            self._retain_spans(tracer)
            self._record(
                trace,
                time.perf_counter() - started,
                blocks=exc.blocks_accessed,
                candidates=len(trace.candidate_bids),
                tuples=0,
                aborted=True,
            )
            raise
        self._retain_spans(tracer)
        self._record(
            trace,
            time.perf_counter() - started,
            blocks=result.blocks_accessed,
            candidates=result.candidates_examined,
            tuples=result.tuples_examined,
            aborted=False,
        )
        return result

    def _record(
        self,
        trace: ExecutorTrace,
        latency_s: float,
        *,
        blocks: int,
        candidates: int,
        tuples: int,
        aborted: bool,
    ) -> None:
        record = QueryRecord(
            latency_s=latency_s,
            blocks_accessed=blocks,
            candidates_examined=candidates,
            tuples_examined=tuples,
            cold_fetches=trace.pseudo_block_fetches,
            query_buffer_hits=trace.pseudo_block_buffer_hits,
            shared_cache_hits=trace.shared_cache_hits,
            bound_memo_hits=trace.bound_memo_hits,
            base_block_reads=trace.base_block_reads,
            aborted=aborted,
        )
        with self._stats_lock:
            self.stats.records.append(record)
        # service-level registry series: the aggregate face of the same
        # events ``records`` keeps per query
        self._queries_counter.inc()
        if aborted:
            self._aborted_counter.inc()
        self._latency_hist.observe(latency_s)
        self._blocks_counter.inc(blocks)
        self._candidates_counter.inc(candidates)

    def _retain_spans(self, tracer: Tracer | None) -> None:
        if tracer is None or not tracer.roots:
            return
        with self._stats_lock:
            self.spans.extend(tracer.roots)
            if len(self.spans) > self.span_capacity:
                del self.spans[: len(self.spans) - self.span_capacity]

    # ------------------------------------------------------------------
    # cache administration
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop every shared cache (e.g. after an external rebuild)."""
        if self.pseudo_cache is not None:
            self.pseudo_cache.clear()
        if self.bound_memo is not None:
            self.bound_memo.clear()
        if self.block_cache is not None:
            self.block_cache.clear()

    def cache_hit_rate(self) -> float:
        """Shared pseudo-block cache hit rate (0.0 when disabled)."""
        if self.pseudo_cache is None:
            return 0.0
        return self.pseudo_cache.stats.hit_rate

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain the pool, unhook invalidation.

        A service-owned background compactor (``auto_compact_delta``) is
        stopped too; an injected ``compactor`` is left running — its
        lifecycle belongs to whoever created it.
        """
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        if self._owns_compactor and self.compactor is not None:
            self.compactor.close(wait=wait)
        if self._listener is not None:
            self.cube.remove_invalidation_listener(self._listener)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
