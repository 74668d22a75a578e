"""Concurrent query serving over a ranking cube.

Every service is one front end (``_FrontEnd``: pool, admission,
coalescing, timed records, spans, lifecycle) over an answering engine.
:class:`QueryService` is the front end the ROADMAP's "heavy traffic"
north star asks for over one shared
:class:`~repro.core.executor.RankingCubeExecutor`, with the cross-query
caches of :mod:`repro.serve.cache` attached (:class:`ServingStack`):

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
import pickle
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
    """Raised when submitting to a closed service."""


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
    """Per-query accounting kept by a service (latency + I/O + caches);
    the cache fields read 0 on a sharded service, the shard fields 0
    everywhere else."""

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
    shards_consulted: int = 0
    merge_rounds: int = 0
    shard_steps: int = 0


@dataclass
class QueryTrace(ExecutorTrace):
    """The trace the front end hands an engine for one query: the
    executor's counters plus the sharded merge's."""

    shards_consulted: int = 0
    merge_rounds: int = 0
    shard_steps: int = 0


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


class ServingStack:
    """One cube's executor with the cross-query caches in front of it.

    Built alike by :class:`QueryService` and by every shard endpoint
    (:class:`~repro.serve.endpoint.ShardEndpoint`): the pseudo-block
    cache, bound memo and block cache on one registry, the pseudo-block
    cache hooked to the cube's invalidation events, and the executor
    that reads through all three.  Injected caches are used as given;
    ``share_caches=False`` disables every layer.
    """

    def __init__(
        self,
        cube: RankingCube,
        relation: Table | None,
        registry: MetricsRegistry,
        *,
        share_caches: bool = True,
        pseudo_cache: PseudoBlockCache | None = None,
        bound_memo: BoundMemo | None = None,
        block_cache: BlockCache | None = None,
    ):
        self.cube = cube
        if share_caches:
            # explicit None tests: an *empty* injected cache is falsy
            # (it has __len__), yet must still be the one we use
            if pseudo_cache is None:
                pseudo_cache = PseudoBlockCache(registry=registry)
            if bound_memo is None:
                bound_memo = BoundMemo(registry=registry)
            if block_cache is None:
                block_cache = BlockCache(registry=registry)
        else:
            pseudo_cache = bound_memo = block_cache = None
        self.pseudo_cache = pseudo_cache
        self.bound_memo = bound_memo
        self.block_cache = block_cache
        self.executor = RankingCubeExecutor(
            cube,
            relation,
            pseudo_cache=pseudo_cache,
            bound_memo=bound_memo,
            block_cache=block_cache,
        )
        # the block cache needs no hook: it is keyed by the base table's
        # never-reused uid, and maintenance installs a new table
        self._listener = None
        if pseudo_cache is not None:
            self._listener = pseudo_cache.invalidate_cuboids
            cube.add_invalidation_listener(self._listener)

    def clear(self) -> None:
        """Drop every shared cache."""
        for cache in (self.pseudo_cache, self.bound_memo, self.block_cache):
            if cache is not None:
                cache.clear()

    def unhook(self) -> None:
        if self._listener is not None:
            self.cube.remove_invalidation_listener(self._listener)
            self._listener = None


class _FrontEnd:
    """The request lifecycle every service shares (see the module docstring).

    A subclass supplies the engine: ``_answer(query, trace, tracer)``
    and ``_answer_reverse(query, trace, tracer)`` return the answer or
    raise :class:`QueryAbortedError`; ``_close_engine(wait)`` releases
    what the engine holds; a replicated deployment overrides
    :meth:`_with_failover`.  Series are named ``<metrics>.<name>``.
    """

    #: ``(blocks_accessed, candidates_examined)`` counters moved per
    #: query, or None where the engine moves its own (per-shard) series
    _work_series: tuple | None = None

    def __init__(
        self,
        *,
        metrics: str,
        thread_name: str,
        workers: int,
        registry: MetricsRegistry,
        trace_spans: bool,
        span_capacity: int,
        max_inflight: int | None = None,
        coalesce: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self.registry = registry
        self.trace_spans = trace_spans
        self.span_capacity = span_capacity
        self.spans: list[Span] = []
        self.stats = ServiceStats()
        self.max_inflight = max_inflight
        self.coalesce = coalesce
        self._metrics = metrics
        self._stats_lock = threading.Lock()
        #: guards ``_closed`` and the in-flight book: a submit and
        #: :meth:`close` cannot interleave between check and hand-off
        self._admission_lock = threading.Lock()
        self._closed = False
        self._inflight_count = 0
        self._inflight: dict[bytes, Future] = {}
        self._queries_counter = registry.counter(f"{metrics}.queries")
        self._searches_counter = registry.counter(f"{metrics}.searches_opened")
        self._reverse_counter = registry.counter(f"{metrics}.reverse_queries")
        self._aborted_counter = registry.counter(f"{metrics}.aborted")
        self._latency_hist = registry.histogram(f"{metrics}.latency_s")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix=thread_name
        )

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _admit(self, run, query, coalescable: bool = False) -> Future:
        """Hand ``run(query)`` to the pool, behind the closed check,
        admission control (``max_inflight``) and — for a ``coalescable``
        query on a coalescing service — duplicate coalescing: an
        identical query in flight returns its future instead."""
        key = pickle.dumps(query) if coalescable and self.coalesce else None
        with self._admission_lock:
            if self._closed:
                raise ServiceClosedError(f"{type(self).__name__} is closed")
            if key is None and self.max_inflight is None:
                return self._pool.submit(run, query)  # nothing to book
            if key is not None:
                existing = self._inflight.get(key)
                if existing is not None:
                    self.registry.counter(f"{self._metrics}.coalesced").inc()
                    return existing
            if (
                self.max_inflight is not None
                and self._inflight_count >= self.max_inflight
            ):
                self.registry.counter(f"{self._metrics}.overloaded").inc()
                raise ServiceOverloadedError(
                    f"{self._inflight_count} query(ies) already in flight "
                    f"(max_inflight={self.max_inflight})"
                )
            future = self._pool.submit(run, query)
            self._inflight_count += 1
            if key is not None:
                self._inflight[key] = future
        future.add_done_callback(lambda _f: self._release_inflight(key))
        return future

    def _release_inflight(self, key: bytes | None) -> None:
        with self._admission_lock:
            self._inflight_count -= 1
            if key is not None:
                self._inflight.pop(key, None)

    def run_batch(self, queries) -> list[QueryResult]:
        """Run a batch concurrently, returning answers in request order."""
        futures = [self.submit(q) for q in queries]
        return [f.result() for f in futures]

    def submit_reverse(self, query):
        """Enqueue one reverse top-k query
        (:class:`~repro.core.reverse.ReverseTopKQuery`); the future
        resolves to a :class:`~repro.core.reverse.ReverseTopKResult`.
        Admission-controlled like ``submit`` but never coalesced (the
        payload includes function families that are awkward as keys, and
        reverse queries are rarely identical).  Aborts surface as typed
        :class:`QueryAbortedError` exactly like forward queries."""
        return self._admit(self._run_reverse, query)

    def _begin_search(self) -> Tracer | None:
        """The closed check and count every any-k cursor open pays;
        returns the cursor's tracer (None when not tracing)."""
        if self._closed:
            raise ServiceClosedError(f"{type(self).__name__} is closed")
        self._searches_counter.inc()
        return self._tracer()

    # ------------------------------------------------------------------
    # one timed run
    # ------------------------------------------------------------------
    def _tracer(self) -> Tracer | None:
        return Tracer(self.registry) if self.trace_spans else None

    def _run_one(self, query: TopKQuery) -> QueryResult:
        return self._with_failover(lambda: self._timed(self._answer, query))

    def _run_reverse(self, query):
        def attempt():
            self._reverse_counter.inc()
            return self._timed(self._answer_reverse, query)

        return self._with_failover(attempt)

    def _with_failover(self, attempt):
        """Run one attempt; a deployment with replicas retries here."""
        return attempt()

    def _timed(self, engine, query):
        """``engine(query, trace, tracer)`` once, timed and recorded
        whether it answers or aborts (the abort is re-raised)."""
        trace = QueryTrace()
        tracer = self._tracer()
        started = time.perf_counter()
        try:
            result = engine(query, trace, tracer)
        except QueryAbortedError as exc:
            self._record(trace, tracer, started, exc, aborted=True)
            raise
        self._record(trace, tracer, started, result, aborted=False)
        return result

    def _record(
        self, trace: QueryTrace, tracer, started: float, outcome, *, aborted: bool
    ) -> None:
        """Keep the query's spans, its record and the service series;
        ``outcome`` is the result, or the abort with its block count."""
        latency_s = time.perf_counter() - started
        self._retain_spans(tracer)
        blocks = outcome.blocks_accessed
        if aborted:
            candidates, tuples = len(trace.candidate_bids), 0
        else:
            candidates = outcome.candidates_examined
            tuples = outcome.tuples_examined
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
            shards_consulted=trace.shards_consulted,
            merge_rounds=trace.merge_rounds,
            shard_steps=trace.shard_steps,
        )
        with self._stats_lock:
            self.stats.records.append(record)
        # service-level registry series: the aggregate face of the same
        # events ``records`` keeps per query
        self._queries_counter.inc()
        if aborted:
            self._aborted_counter.inc()
        self._latency_hist.observe(latency_s)
        if self._work_series is not None:
            blocks_counter, candidates_counter = self._work_series
            blocks_counter.inc(blocks)
            candidates_counter.inc(candidates)

    def _retain_spans(self, tracer: Tracer | None) -> None:
        if tracer is None or not tracer.roots:
            return
        with self._stats_lock:
            self.spans.extend(tracer.roots)
            if len(self.spans) > self.span_capacity:
                del self.spans[: len(self.spans) - self.span_capacity]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain the pool, release the engine
        (idempotent).  A submit racing this either lands before the pool
        shuts down or raises :class:`ServiceClosedError`."""
        with self._admission_lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait)
        self._close_engine(wait)

    def _close_engine(self, wait: bool) -> None:
        """Release what the engine holds, once, after the pool drained."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class QueryService(_FrontEnd):
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
        registry: MetricsRegistry | None = None,
        trace_spans: bool = False,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        compactor=None,
        auto_compact_delta: int | None = None,
        block_cache: BlockCache | None = None,
    ):
        if registry is None:
            registry = _storage_registry(cube)
        super().__init__(
            metrics="serve.service",
            thread_name="repro-serve",
            workers=workers,
            registry=registry if registry is not None else MetricsRegistry(),
            trace_spans=trace_spans,
            span_capacity=span_capacity,
        )
        if compactor is not None and auto_compact_delta is not None:
            raise ValueError(
                "pass either a compactor or auto_compact_delta, not both"
            )
        self.cube = cube
        self._stack = ServingStack(
            cube,
            relation,
            self.registry,
            share_caches=share_caches,
            pseudo_cache=pseudo_cache,
            bound_memo=bound_memo,
            block_cache=block_cache,
        )
        self.pseudo_cache = self._stack.pseudo_cache
        self.bound_memo = self._stack.bound_memo
        self.block_cache = self._stack.block_cache
        self.executor = self._stack.executor
        self._work_series = (
            self.registry.counter("serve.service.blocks_accessed"),
            self.registry.counter("serve.service.candidates_examined"),
        )
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
        # written out here rather than inherited: the ledger's probes wrap
        # vars(QueryService)["submit"] and vars(ShardedQueryService)["submit"]
        return self._admit(self._run_one, query, coalescable=True)

    def open_search(self, query: TopKQuery):
        """Open a resumable any-k cursor over the shared executor.

        Unlike :meth:`submit` the cursor is caller-stepped, not pooled:
        the caller pulls certified rank-order rows past ``query.k`` via
        :meth:`~repro.core.anyk.AnyKCursor.next_batch` at its own pace,
        against the cube snapshot pinned at open time.  Storage faults
        surface from ``next_batch`` as typed
        :class:`~repro.core.executor.QueryAbortedError`.
        """
        tracer = self._begin_search()
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

    def _answer(self, query: TopKQuery, trace, tracer) -> QueryResult:
        """The one call a top-k query times; a routed service routes it."""
        return self.executor.execute(query, trace=trace, tracer=tracer)

    def _answer_reverse(self, query, trace, tracer):
        from ..core.reverse import reverse_topk

        return reverse_topk(self.executor, query, trace=trace, tracer=tracer)

    # ------------------------------------------------------------------
    # cache administration
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop every shared cache (e.g. after an external rebuild)."""
        self._stack.clear()

    def cache_hit_rate(self) -> float:
        """Shared pseudo-block cache hit rate (0.0 when disabled)."""
        if self.pseudo_cache is None:
            return 0.0
        return self.pseudo_cache.stats.hit_rate

    def _close_engine(self, wait: bool) -> None:
        """A service-owned background compactor (``auto_compact_delta``)
        is stopped; an injected ``compactor`` is left running — its
        lifecycle belongs to whoever created it."""
        if self._owns_compactor and self.compactor is not None:
            self.compactor.close(wait=wait)
        self._stack.unhook()
