"""Scatter-gather top-k serving over a sharded ranking cube.

:class:`ShardedQueryService` fans each :class:`TopKQuery` out to one
progressive-search session per consulted shard and merges their
candidate streams in a global frontier:

* **Scatter** — the :class:`~repro.shard.map.ShardMap` picks the shards
  (a single one when an equality selection pins the shard key, all of
  them otherwise); each gets its own session over its own cube snapshot.
* **Gather** — a merge loop steps every *eligible* shard once per
  round, pushing returned ``(score, global tid)`` pairs into one
  global top-k heap.  A shard stays eligible while the global answer is
  short of ``k`` **or** its certified ``best_unseen`` bound is ``<=``
  the k-th best seen score — the same non-strict continue condition the
  serial executor uses, so tid-ascending tie-breaking survives the
  merge.  The loop stops when no shard is eligible: every unexamined
  block on every shard then bounds strictly above the k-th score and
  can never displace a kept row.
* **Delta** — per-shard delta rows carry no block bound and merge
  unconditionally as each session opens (seeding the heap tightens the
  stop).

Answers are *byte-identical* to an unsharded executor over the same
rows (property-tested at 1/2/4 shards, pristine and faulty devices):
scores are computed from the same stored values by the same function,
global tids are preserved by the build, and stepping shards in any
interleaving changes amortization only.

**One loop, two transports.**  Everything in this module — the merge
loop, the any-k enumeration cursor, reverse top-k, failover, abort
cleanup — is written once against the per-shard endpoint interface of
:mod:`repro.serve.endpoint` (``open / step / open_enum / next_rows /
reverse_count / close / cold_cache``, typed
:class:`~repro.storage.device.StorageError` on death) and a pool of
such endpoints (``shard_ids / handle / promote / cold_cache / close``).
``mode=`` only picks the pool, in the constructor:

* ``mode="thread"`` (default) — :class:`~repro.serve.endpoint
  .LocalShardPool`: each endpoint object lives in this interpreter and a
  call is a method call.  Correct, cache-warm, but GIL-bound.
* ``mode="process"`` — :class:`~repro.serve.procpool.ProcessShardPool`:
  each endpoint lives in a long-lived worker **process**, warm-started
  from a SHA-256-pinned shard snapshot, and a call is one length-
  prefixed pickle frame each way (:mod:`repro.serve.wire`).  The front
  end adds admission control (``max_inflight``) and, by default,
  duplicate in-flight query coalescing.

How many frontier steps one call runs (``pool.trip_steps``) and where
a round's calls run (``pool.calls_block``) belong to the transport, not
to the loop.  An in-process call is free and never blocks: the merge
takes one step per call, refreshing the global k-th score after each, on
the query's own thread (under one GIL a hand-off buys no overlap).  A
pipe round trip waits, GIL released: it carries ``step_batch`` steps,
the open the first batch, and a round's trips overlap on a step pool
that exists only for such a transport.  Batching trades round trips for
blocks — at 4 shards batch-8 stepping read 21.5 blocks/query where
step-at-a-time read 17.8 on a 20,000-row zipf replay — which is why
it is not applied where trips cost nothing.  Either way the endpoint
stops a batch on the strict complement of the eligibility test, so
answers do not depend on it.

Failure semantics: shards are independent — a storage fault on one
(past its retry budget) or a dead worker aborts the *query* with
:class:`~repro.core.executor.QueryAbortedError` carrying the merged
partial rows and the blocks every reachable shard read; every session
the query did open is closed first, a dead worker respawns quietly in
the background, and other shards' devices, caches, and in-flight
queries are untouched.  With ``replication_factor > 1`` the pool
promotes a warm replica instead and the query retries whole.  Each
shard keeps its **own** pseudo-block cache and bound memo (cuboid names
and pids collide across shards, so sharing one cache would alias
entries).

Observability is the same in both modes: per-shard labelled series
``shard.service.{steps,blocks_accessed,device_reads}{shard=<id>}``, and
with ``trace_spans=True`` each session's ``shard_batch`` /
``shard_enum_batch`` spans adopted under the query's ``shard_merge`` /
``anyk_query`` span.  A worker process additionally ships its registry's
per-session counter delta, folded in here under ``shard=<id>``; an
in-process shard's registry is live in this process and is read where
it is.
"""

from __future__ import annotations

import json
import pickle
import shutil
import tempfile
import threading
import time
from bisect import bisect_left
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import count
from pathlib import Path

from ..core.executor import QueryAbortedError
from ..core.reverse import ReverseTopKQuery, ReverseTopKResult
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Span, Tracer, adopt_spans, maybe_span
from ..relational.query import (
    QueryResult,
    ResultRow,
    ShardIO,
    TopKQuery,
    push_topk,
    rows_from_heap,
)
from ..shard.builder import ShardedCube
from ..storage.device import StorageError
from . import wire
from .endpoint import LocalShardPool, ProcPoolError
from .procpool import ProcessShardPool
from .service import (
    DEFAULT_SPAN_CAPACITY,
    ServiceClosedError,
    ServiceOverloadedError,
)

#: What a shard call raises when the shard cannot answer: a storage
#: fault past its retry budget, a worker that hung up, a pool that
#: cannot revive one.  The only exceptions the abort paths handle.
_SHARD_FAULTS = (StorageError, wire.WorkerDiedError, ProcPoolError)


@dataclass(frozen=True)
class ShardedQueryRecord:
    """Per-query accounting for one scatter-gathered execution."""

    latency_s: float
    shards_consulted: int
    merge_rounds: int
    shard_steps: int
    blocks_accessed: int
    candidates_examined: int
    tuples_examined: int
    aborted: bool = False


@dataclass
class ShardedServiceStats:
    """Aggregate view over every query the service has finished."""

    records: list[ShardedQueryRecord] = field(default_factory=list)

    @property
    def queries(self) -> int:
        return len(self.records)

    @property
    def aborted(self) -> int:
        return sum(1 for r in self.records if r.aborted)

    def mean(self, attribute: str) -> float:
        if not self.records:
            return 0.0
        return sum(getattr(r, attribute) for r in self.records) / len(self.records)

    def total(self, attribute: str) -> int:
        return sum(getattr(r, attribute) for r in self.records)


def _blame_shard(exc: BaseException, shard_id: int) -> None:
    """Attach the faulting shard id to a storage error (and its cause).

    A per-shard call raises a bare :class:`StorageError` that carries no
    shard attribution (and one that crossed a pipe lost any it had); the
    failover path needs to know *which* primary died to promote its
    replica.  :class:`~repro.serve.wire.WorkerDiedError` names its shard
    itself.  Annotating the ``cause`` too matters because the service
    wraps a per-shard :class:`QueryAbortedError` by re-blaming its
    cause, not the wrapper.
    """
    for target in (exc, getattr(exc, "cause", None)):
        if target is not None and getattr(target, "shard_id", None) is None:
            try:
                target.shard_id = shard_id
            except AttributeError:
                pass  # exotic exception with __slots__: no attribution


def _abort_cause(exc: Exception):
    return exc.cause if isinstance(exc, QueryAbortedError) else exc


class _EnumStream:
    """One shard's enumeration session, as the cursor's merge reads it.

    Rows come back as ``(score, global tid)`` pairs, already in the
    shard's certified rank order (the tid map is monotone, so local
    ``(score, tid)`` order *is* global ``(score, gtid)`` order).  The
    rows the session open returned are drained before any further call.
    """

    def __init__(self, service, shard_id: int, handle, request_id: int, first):
        self._service = service
        self.shard_id = shard_id
        self.handle = handle
        self.request_id = request_id
        self._first = first

    def next_rows(self, count: int):
        if self._first is not None:
            (rows, done), self._first = self._first, None
        else:
            rows, done = self._service._guard(
                "enum_next", self.shard_id,
                self.handle.next_rows, self.request_id, count,
            )
        to_global = self._service.cube.shards[self.shard_id].to_global
        return [(score, to_global(tid)) for score, tid in rows], done


class ShardedAnyKCursor:
    """Certified rank-order enumeration over a sharded deployment.

    A k-way merge over per-shard enumeration sessions: each shard yields
    its matches in ascending ``(score, gtid)`` order, and
    :meth:`next_batch` repeatedly emits the smallest head across streams
    — the same tie-breaking contract as every other path, at every
    depth.  Each session pins its shard's snapshot at open time, so the
    whole cursor answers as of its open point regardless of appends or
    compaction runs that land mid-enumeration.

    Not thread-safe: one consumer steps it.  A storage fault or worker
    death surfaces from :meth:`next_batch` as a typed
    :class:`~repro.core.executor.QueryAbortedError` (surviving shard
    sessions are closed best-effort, a dead worker respawns quietly in
    the background) and the cursor is then dead.  Call :meth:`close`
    when done — it folds per-shard counters, I/O attribution, and the
    sessions' span trees into the service's registry and span ring, and
    returns the accounting as a rows-free
    :class:`~repro.relational.query.QueryResult`.
    """

    def __init__(
        self,
        service: "ShardedQueryService",
        query: TopKQuery,
        streams: dict[int, _EnumStream],
        batch: int,
        tracer: Tracer | None,
        shard_query: TopKQuery | None = None,
    ):
        self._service = service
        self.query = query
        #: the projection-stripped query the shards enumerate — kept so
        #: a failover can reopen every stream with the exact same plan
        self._shard_query = shard_query if shard_query is not None else query
        self._batch = max(1, batch)
        self._tracer = tracer
        self._refills = 0
        self.rank = 0
        #: rows to silently discard after a failover reopen: the merge is
        #: deterministic, so skipping exactly ``rank`` rows fast-forwards
        #: the fresh streams to the first row not yet emitted
        self._skip = 0
        self._failovers = 0
        self._dead = False
        self._result: QueryResult | None = None
        self._attach(streams)

    def _attach(self, streams: dict[int, _EnumStream]) -> None:
        self._streams = streams
        self._order = sorted(streams)
        self._heads: dict[int, deque] = {sid: deque() for sid in self._order}
        self._finished: set[int] = set()

    @property
    def exhausted(self) -> bool:
        return (
            len(self._finished) == len(self._order)
            and not any(self._heads[sid] for sid in self._order)
        )

    def next_batch(self, count: int) -> list[ResultRow]:
        """The next ``count`` rows in global certified order (fewer only
        at exhaustion; empty means done)."""
        if self._dead:
            raise QueryAbortedError(
                "enumeration cursor is dead (a previous batch aborted)",
                partial_rows=[], blocks_accessed=0, cause=None,
            )
        if self._result is not None:
            raise ServiceClosedError("enumeration cursor is closed")
        out: list[ResultRow] = []
        while len(out) < count:
            try:
                for sid in self._order:
                    if sid in self._finished or self._heads[sid]:
                        continue
                    rows, done = self._streams[sid].next_rows(self._batch)
                    self._refills += 1
                    self._heads[sid].extend(rows)
                    if done or not rows:
                        self._finished.add(sid)
                best_sid = None
                best_head = None
                for sid in self._order:
                    if not self._heads[sid]:
                        continue
                    head = self._heads[sid][0]
                    if best_head is None or head < best_head:
                        best_head, best_sid = head, sid
                if best_sid is None:
                    break
                score, gtid = self._heads[best_sid].popleft()
                if self._skip:
                    self._skip -= 1  # replaying an already-emitted row
                    continue
                row = ResultRow(tid=gtid, score=score)
                if self.query.projection:
                    row = self._service._project(row, self.query)
            except _SHARD_FAULTS as exc:
                if self._try_failover(exc):
                    continue  # fresh streams, fast-forwarding past rank
                self._dead = True
                blocks = self._release(exc)
                raise QueryAbortedError(
                    f"sharded enumeration aborted at rank {self.rank}: {exc}",
                    partial_rows=out,
                    blocks_accessed=blocks,
                    cause=_abort_cause(exc),
                ) from exc
            out.append(row)
            self.rank += 1
        return out

    def __iter__(self):
        """Iterate remaining rows (internally batched by step_batch)."""
        while True:
            batch = self.next_batch(self._batch)
            if not batch:
                return
            yield from batch

    def _release(self, exc: Exception) -> int:
        """Close what sessions still answer; the blocks they had read."""
        streams = self._streams.values()
        return self._service._abort_cleanup(
            {s.shard_id: s.handle for s in streams},
            next((s.request_id for s in streams), 0),
            exc,
        )

    def _try_failover(self, exc: Exception) -> bool:
        """Promote the dead shard's replica and reopen every stream.

        Enumeration is stateful — each stream's cursor position dies
        with its shard — so failover reopens *all* streams from scratch
        and fast-forwards by discarding the first :attr:`rank` merged
        rows (the merge is deterministic, so those are exactly the rows
        already emitted).  Returns ``False`` when the fault names no
        shard, the failover budget is spent, or no replica remains —
        the caller then aborts as it would without replication.
        """
        service = self._service
        sid = getattr(exc, "shard_id", None)
        if (
            sid is None
            or self._failovers >= service._max_failovers
            or not service._failover(sid, self._tracer)
        ):
            return False
        self._failovers += 1
        self._release(exc)
        try:
            streams = service._open_enum(self._shard_query, self._tracer)
        except Exception:
            return False  # reopen failed: fall through to the abort path
        self._attach(streams)
        self._skip = self.rank
        return True

    def close(self) -> QueryResult:
        """Fold accounting and release shard sessions (idempotent)."""
        if self._result is not None:
            return self._result
        result = QueryResult(shard_io={})
        if self._dead:
            self._result = result
            return result
        spans: list = []
        for sid in self._order:
            stream = self._streams[sid]
            spans += self._service._fold_close(
                sid, stream.handle.close(stream.request_id), result
            )
        if self._tracer is not None:
            with self._tracer.span(
                "anyk_query",
                k=self.query.k,
                selections=dict(sorted(self.query.selections.items())),
                ranking=",".join(self.query.ranking.dims),
                shards=list(self._order),
            ) as root:
                root.add_many(
                    rows=self.rank,
                    refills=self._refills,
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                )
                adopt_spans(root, spans)
            self._service._retain_spans(self._tracer)
        self._result = result
        return result

    def __enter__(self) -> "ShardedAnyKCursor":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._dead:
            self.close()


class ShardedQueryService:
    """Thread-pooled scatter-gather serving over a :class:`ShardedCube`.

    Parameters
    ----------
    cube:
        The sharded deployment to serve.
    workers:
        Concurrent queries in flight (front-end pool width).
    step_workers:
        Width of the *separate* pool a round's blocking shard calls
        overlap on (default ``max(workers, num_shards)``; steps submit
        no further work, so the two pools cannot deadlock).  Unused in
        thread mode, whose calls do not block and start no step pool.
    share_caches / buffer_pseudo_blocks:
        As on :class:`~repro.serve.service.QueryService`, but the shared
        caches are **per shard** (see module docstring).
    registry:
        Service-level metrics spine: global query/abort/latency series
        plus per-shard *labeled* series (``shard.service.steps`` etc.,
        one series per ``shard=<id>`` label).  Private when omitted —
        shard storage trees keep their own registries either way.  In
        process mode, worker-side per-query counter deltas are merged in
        under an added ``shard=<id>`` label.
    trace_spans:
        Retain per-query span trees (``query`` → ``shard_merge`` →
        per-shard ``shard_batch``) in :attr:`spans`, a bounded ring like
        the unsharded service's.
    mode:
        ``"thread"`` (default) or ``"process"`` — which pool of shard
        endpoints serves the queries; see the module docstring.  Process
        mode snapshots the deployment at construction time: rows
        appended to ``cube`` afterwards are not visible to the workers
        until a new service is built.
    spill_dir:
        Process mode only: directory holding (or to hold) the pinned
        per-shard snapshots.  When omitted the service spills to a
        private temporary directory and removes it on :meth:`close`; an
        existing directory with a manifest is reused as-is (workers
        verify the SHA-256 pins either way).
    max_inflight:
        Admission control: queries allowed in flight at once before
        :meth:`submit` raises :class:`ServiceOverloadedError`
        (``None`` = unbounded, the default).
    coalesce:
        Share one execution among identical in-flight queries (their
        futures all resolve to the same result).  No effect on answers,
        only amortization.  Defaults to on in process mode and off in
        thread mode, where repeated identical queries are how callers
        deliberately warm the per-shard caches.
    step_batch / worker_timeout_s / fault_hook:
        ``step_batch`` is the frontier steps per worker round trip in
        process mode and the rows per enumeration refill in both;
        ``worker_timeout_s`` the reply deadline after which a worker is
        declared dead.  ``fault_hook`` is a test seam called as
        ``fault_hook(point, shard_id)`` at the same per-shard serving
        points in both modes: ``"scatter"`` / ``"merge_round"`` /
        ``"finish"`` around a top-k session's open, steps and close,
        ``"enum_open"`` / ``"enum_next"`` around an enumeration
        session's, ``"reverse_count"``, and — from the pool —
        ``"promote"`` and (process mode, which alone respawns)
        ``"respawn"``.  An exception the hook raises surfaces exactly as
        a real fault at that point would, which is how the failover kill
        matrix steers deaths.
    """

    def __init__(
        self,
        cube: ShardedCube,
        workers: int = 4,
        step_workers: int | None = None,
        share_caches: bool = True,
        buffer_pseudo_blocks: bool = True,
        registry: MetricsRegistry | None = None,
        trace_spans: bool = False,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        mode: str = "thread",
        spill_dir: str | None = None,
        max_inflight: int | None = None,
        coalesce: bool | None = None,
        step_batch: int = wire.DEFAULT_STEP_BATCH,
        worker_timeout_s: float = 60.0,
        fault_hook=None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.cube = cube
        self.workers = workers
        self.mode = mode
        self.share_caches = share_caches
        self.buffer_pseudo_blocks = buffer_pseudo_blocks
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace_spans = trace_spans
        self.span_capacity = span_capacity
        self.spans: list[Span] = []
        self.stats = ShardedServiceStats()
        self._stats_lock = threading.Lock()
        self.max_inflight = max_inflight
        self.coalesce = coalesce if coalesce is not None else mode == "process"
        self.step_batch = step_batch
        self._fault_hook = fault_hook
        self._inflight_lock = threading.Lock()
        self._inflight_count = 0
        self._inflight: dict[bytes, Future] = {}
        self._request_ids = count(1)
        #: replication: N-1 warm copies per shard (``ShardMap``), so a
        #: dead primary fails the query over instead of aborting it
        self.replication_factor = cube.shard_map.replication_factor
        self._replicas_enabled = self.replication_factor > 1
        self._max_failovers = (
            max(1, self.replication_factor - 1) if self._replicas_enabled else 0
        )
        options = {
            "share_caches": share_caches,
            "buffer_pseudo_blocks": buffer_pseudo_blocks,
        }
        self._owned_spill_dir: str | None = None
        if mode == "thread":
            self._transport = LocalShardPool(
                cube,
                options=options,
                registry=self.registry,
                fault_hook=fault_hook,
                replicas=self.replication_factor - 1,
            )
        else:
            self._transport = self._start_transport(
                spill_dir, options, worker_timeout_s, fault_hook
            )
        self._open_steps, self._trip_steps = self._transport.trip_steps(step_batch)
        #: per-shard labelled series, resolved once per shard rather than
        #: once per step (a lookup sorts the labels under the registry lock)
        self._series: dict[int, tuple] = {}
        self._queries_counter = self.registry.counter("shard.service.queries")
        self._searches_counter = self.registry.counter(
            "shard.service.searches_opened"
        )
        self._reverse_counter = self.registry.counter(
            "shard.service.reverse_queries"
        )
        self._aborted_counter = self.registry.counter("shard.service.aborted")
        self._coalesced_counter = self.registry.counter("shard.service.coalesced")
        self._overloaded_counter = self.registry.counter("shard.service.overloaded")
        self._latency_hist = self.registry.histogram("shard.service.latency_s")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard-serve"
        )
        #: where a round's shard calls overlap; None when they do not block
        self._step_pool = None
        if self._transport.calls_block:
            self._step_pool = ThreadPoolExecutor(
                max_workers=step_workers or max(workers, cube.num_shards),
                thread_name_prefix="repro-shard-step",
            )
        self._closed = False

    def _start_transport(
        self, spill_dir: str | None, options: dict, worker_timeout_s: float,
        fault_hook,
    ) -> ProcessShardPool:
        """Spill the deployment (unless already pinned) and boot workers."""
        from ..persist import SHARD_MANIFEST, ShardedWorkspace

        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-shard-spill-")
            self._owned_spill_dir = spill_dir
        directory = Path(spill_dir)
        manifest_path = directory / SHARD_MANIFEST
        if manifest_path.exists():
            manifest = json.loads(manifest_path.read_text())
        else:
            manifest = ShardedWorkspace(cube=self.cube).save(directory)
        return ProcessShardPool(
            directory,
            manifest,
            options=options,
            timeout=worker_timeout_s,
            registry=self.registry,
            fault_hook=fault_hook,
            replicas=self.replication_factor - 1,
        )

    # ------------------------------------------------------------------
    # one shard call, one fan-out, one close, one abort
    # ------------------------------------------------------------------
    def _guard(self, point: str, shard_id: int, call, *args):
        """One shard call under its fault seam, blamed on the shard."""
        try:
            if self._fault_hook is not None:
                self._fault_hook(point, shard_id)
            return call(*args)
        except StorageError as exc:
            _blame_shard(exc, shard_id)
            raise

    def _fan_out(self, shard_ids: list[int], call, into: dict, *args) -> None:
        """``into[sid] = call(sid, *args)`` for every shard: in order on
        this thread, or — when the transport's calls block and there is
        more than one — concurrently on the step pool.

        Every pooled call finishes — and every success lands in ``into``
        — before the first failure is re-raised: an abort must know each
        session that did open, and must not close a session another
        thread is still stepping.
        """
        if self._step_pool is None or len(shard_ids) == 1:
            for sid in shard_ids:
                into[sid] = call(sid, *args)
            return
        futures = [
            (sid, self._step_pool.submit(call, sid, *args)) for sid in shard_ids
        ]
        failure = None
        for sid, future in futures:
            try:
                into[sid] = future.result()
            except BaseException as exc:
                if failure is None:
                    failure = exc
        if failure is not None:
            raise failure

    def _targets(self, selections) -> list[int]:
        """The shards a query consults that have anything to serve."""
        available = set(self._transport.shard_ids)
        return [
            sid
            for sid in self.cube.shard_map.shards_for_query(selections)
            if sid in available
        ]

    def _shard_series(self, shard_id: int) -> tuple:
        """The shard's ``(steps, blocks_accessed, device_reads)`` series."""
        series = self._series.get(shard_id)
        if series is None:
            series = self._series[shard_id] = tuple(
                self.registry.counter(
                    f"shard.service.{name}", shard=str(shard_id)
                )
                for name in ("steps", "blocks_accessed", "device_reads")
            )
        return series

    def _fold_close(self, shard_id: int, closed: tuple, result: QueryResult) -> list:
        """Fold one closed session's accounting into ``result`` and the
        registry; returns the session's span trees for adoption."""
        blocks, candidates, tuples, device_reads, deltas, spans = closed
        result.blocks_accessed += blocks
        result.candidates_examined += candidates
        result.tuples_examined += tuples
        result.shard_io[shard_id] = ShardIO(
            blocks_accessed=blocks,
            candidates_examined=candidates,
            tuples_examined=tuples,
            device_reads=device_reads,
        )
        self._account(shard_id, blocks, device_reads, deltas)
        return spans

    def _account(self, shard_id: int, blocks: int, device_reads: int, deltas) -> None:
        """Move the shard's labelled series by one call's work and fold
        in the counter rows a worker shipped (none from this process)."""
        _steps, blocks_series, reads_series = self._shard_series(shard_id)
        blocks_series.inc(blocks)
        reads_series.inc(device_reads)
        self.registry.merge_counter_items(deltas, shard=str(shard_id))

    def _abort_cleanup(self, handles: dict, request_id: int, exc: Exception) -> int:
        """Close every session an aborting query opened; kick a dead
        worker's respawn.

        ``handles`` holds every shard an open was *attempted* on, so a
        session whose open failed half-way is closed too (and one that
        never came to exist answers with an error, ignored like every
        other here — the query is aborting anyway).  Returns the blocks
        read by the shards that could still answer — the abort's
        ``blocks_accessed`` is therefore a lower bound.
        """
        dead = exc.shard_id if isinstance(exc, wire.WorkerDiedError) else None
        partial = QueryResult(shard_io={})
        for sid, handle in handles.items():
            if sid == dead or not handle.alive:
                continue
            try:
                self._fold_close(sid, handle.close(request_id), partial)
            except Exception:
                continue
        if dead is not None and not self._replicas_enabled:
            threading.Thread(
                target=self._respawn_quietly,
                args=(dead,),
                name=f"repro-shard-respawn-{dead}",
                daemon=True,
            ).start()
        return partial.blocks_accessed

    def _respawn_quietly(self, shard_id: int) -> None:
        try:
            self._transport.handle(shard_id)  # revives a dead worker
        except Exception:
            pass  # the next query's handle() lookup retries once more

    # ------------------------------------------------------------------
    # replica failover
    # ------------------------------------------------------------------
    def refresh_replicas(self) -> None:
        """Re-arm failover after appends (see
        :meth:`~repro.serve.endpoint.LocalShardPool.refresh_replicas`;
        worker processes re-pin from their snapshots and need nothing)."""
        if self._replicas_enabled:
            self._transport.refresh_replicas()

    @staticmethod
    def _dead_shard_of(exc: BaseException) -> int | None:
        """Which shard the abort blames, if it (or its cause) names one."""
        sid = getattr(getattr(exc, "cause", None), "shard_id", None)
        if sid is None:
            sid = getattr(exc, "shard_id", None)
        return sid

    def _failover(self, shard_id: int, tracer: Tracer | None) -> bool:
        """Promote a warm replica for ``shard_id``; True if the query
        should retry.

        The pool does the promotion (a standby worker booted from the
        same pinned snapshot, or a :func:`~repro.shard.builder
        .clone_shard` copy swapped into the deployment).  Returns
        ``False`` — and the original abort stands — when replication is
        off, no live replica remains, or the replica is stale.
        """
        if not self._replicas_enabled:
            return False
        with maybe_span(
            tracer, "failover", shard=shard_id, mode=self.mode
        ) as span:
            try:
                self._transport.promote(shard_id)
            except Exception:
                return False
            self.registry.counter(
                "shard.replica.failovers", shard=str(shard_id)
            ).inc()
            if span is not None:
                span.add("promoted", 1)
        return True

    def _with_failover(self, attempt):
        """Run one query attempt, retrying whole on replica promotion.

        Failover retries the *entire* query rather than resuming the
        aborted merge: per-shard search state died with the shard, and
        the merge is deterministic, so a clean re-run on the promoted
        replica is byte-identical to a run that never saw the fault.
        Each failed attempt is still recorded as an aborted attempt in
        :attr:`stats`; the failover itself shows up in the
        ``shard.replica.failovers`` counter.
        """
        attempts = 0
        while True:
            try:
                return attempt()
            except StorageError as exc:  # includes QueryAbortedError
                sid = self._dead_shard_of(exc)
                if sid is None or attempts >= self._max_failovers:
                    raise
                tracer = Tracer(self.registry) if self.trace_spans else None
                if not self._failover(sid, tracer):
                    raise
                self._retain_spans(tracer)
                attempts += 1

    # ------------------------------------------------------------------
    # serving APIs
    # ------------------------------------------------------------------
    def _admit(self, run, query, key: bytes | None = None) -> Future:
        """Admission control (``max_inflight``) and duplicate coalescing
        (``key``) in front of the query pool."""
        if self._closed:
            raise ServiceClosedError("ShardedQueryService is closed")
        with self._inflight_lock:
            if key is not None:
                existing = self._inflight.get(key)
                if existing is not None:
                    self._coalesced_counter.inc()
                    return existing
            if (
                self.max_inflight is not None
                and self._inflight_count >= self.max_inflight
            ):
                self._overloaded_counter.inc()
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
        with self._inflight_lock:
            self._inflight_count -= 1
            if key is not None:
                self._inflight.pop(key, None)

    def submit(self, query: TopKQuery) -> "Future[QueryResult]":
        """Enqueue one query; the future resolves to its merged answer.

        Applies admission control (``max_inflight``) and duplicate
        coalescing: an identical query already in flight returns the
        *same* future instead of executing again.
        """
        key = pickle.dumps(query) if self.coalesce else None
        return self._admit(self._run_one, query, key)

    def run_batch(self, queries) -> list[QueryResult]:
        """Run a batch concurrently, returning answers in request order."""
        futures = [self.submit(q) for q in queries]
        return [f.result() for f in futures]

    def submit_reverse(
        self, query: ReverseTopKQuery
    ) -> "Future[ReverseTopKResult]":
        """Enqueue one reverse top-k query (admission-controlled like
        :meth:`submit`; never coalesced — the payload includes function
        families that are awkward as cache keys and reverse queries are
        rarely identical)."""
        return self._admit(self._run_reverse, query)

    def open_search(self, query: TopKQuery) -> ShardedAnyKCursor:
        """Open a resumable any-k cursor over every consulted shard.

        Unlike :meth:`submit` this is caller-stepped (no pool, no
        admission control, no coalescing): the returned cursor yields
        rows in certified global ``(score, tid)`` order — past
        ``query.k``, on demand — until the snapshot it pinned at open
        time is exhausted.  Projection is applied at the front end from
        global tids; the shards enumerate bare ``(score, tid)`` pairs.
        """
        if self._closed:
            raise ServiceClosedError("ShardedQueryService is closed")
        query.validate_against(self.cube.schema)
        self._searches_counter.inc()
        tracer = Tracer(self.registry) if self.trace_spans else None
        shard_query = (
            query if query.projection is None
            else replace(query, projection=None)
        )
        attempts = 0
        while True:
            try:
                streams = self._open_enum(shard_query, tracer)
                break
            except QueryAbortedError as exc:
                sid = self._dead_shard_of(exc)
                if (
                    sid is not None
                    and attempts < self._max_failovers
                    and self._failover(sid, tracer)
                ):
                    attempts += 1
                    continue
                raise
        return ShardedAnyKCursor(
            self, query, streams, self.step_batch, tracer,
            shard_query=shard_query,
        )

    def _open_enum(
        self, query: TopKQuery, tracer: Tracer | None
    ) -> dict[int, _EnumStream]:
        """One enumeration session per consulted shard, first rows in."""
        pool = self._transport
        targets = self._targets(query.selections)
        request_id = next(self._request_ids)
        handles: dict[int, object] = {}
        first: dict[int, tuple] = {}

        def _open(sid: int):
            handle = handles[sid] = pool.handle(sid)
            return handle.open_enum(
                request_id, query, self.step_batch, tracer is not None
            )

        try:
            self._fan_out(
                targets, lambda sid: self._guard("enum_open", sid, _open, sid), first
            )
        except _SHARD_FAULTS as exc:
            blocks = self._abort_cleanup(handles, request_id, exc)
            raise QueryAbortedError(
                f"sharded enumeration failed to open: {exc}",
                partial_rows=[],
                blocks_accessed=blocks,
                cause=_abort_cause(exc),
            ) from exc
        return {
            sid: _EnumStream(self, sid, handles[sid], request_id, first[sid])
            for sid in targets
        }

    # ------------------------------------------------------------------
    # reverse top-k
    # ------------------------------------------------------------------
    def _run_reverse(self, query: ReverseTopKQuery) -> ReverseTopKResult:
        return self._with_failover(lambda: self._run_reverse_attempt(query))

    def _run_reverse_attempt(self, query: ReverseTopKQuery) -> ReverseTopKResult:
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        self._reverse_counter.inc()
        consulted = len(self._targets(query.selections))
        with maybe_span(
            tracer,
            "reverse_query",
            tid=query.tid,
            k=query.k,
            selections=dict(sorted(query.selections.items())),
            functions=len(query.functions),
        ) as qspan:
            try:
                result = self._reverse(query, tracer)
            except QueryAbortedError as exc:
                self._retain_spans(tracer)
                self._record(
                    started, consulted, 0, 0, exc.blocks_accessed, 0, 0, True
                )
                raise
            if qspan is not None:
                qspan.add_many(
                    qualifying=len(result.qualifying),
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                )
        self._retain_spans(tracer)
        self._record(
            started, consulted, 0, 0, result.blocks_accessed,
            result.candidates_examined, result.tuples_examined, False,
        )
        return result

    def _reverse_target(self, query: ReverseTopKQuery):
        """The target row and whether it matches the query selections."""
        schema = self.cube.schema
        try:
            target = self.cube.fetch_by_tid(query.tid)
        except StorageError as exc:
            # the fetch touched exactly the owning shard's device
            owner = self.cube._owner.get(query.tid)
            if owner is not None:
                _blame_shard(exc, owner[0])
            raise
        matches = all(
            target[schema.position(name)] == value
            for name, value in query.selections.items()
        )
        return schema, target, matches

    def _reverse(
        self, query: ReverseTopKQuery, tracer: Tracer | None
    ) -> ReverseTopKResult:
        pool = self._transport
        result = ReverseTopKResult()
        targets = self._targets(query.selections)
        try:
            schema, target, matches = self._reverse_target(query)
            result.target_matches = matches
            for index, fn in enumerate(query.functions):
                t_score = fn.score(
                    [target[schema.position(d)] for d in fn.dims]
                )
                result.target_scores.append(t_score)
                if not matches:
                    continue
                with maybe_span(
                    tracer, "reverse_function",
                    index=index, ranking=",".join(fn.dims),
                ) as fspan:
                    forward = TopKQuery(query.k, query.selections, fn)
                    preceding = 0
                    for sid in targets:
                        # the target's insertion position in this shard's
                        # (monotone) tid map: local tids before it precede
                        # the target on score ties, all others do not
                        tie_bound = bisect_left(
                            self.cube.shards[sid].tid_map, query.tid
                        )
                        n, blocks, candidates, tuples, device_reads, deltas = (
                            self._guard(
                                "reverse_count", sid,
                                lambda: pool.handle(sid).reverse_count(
                                    forward, t_score, tie_bound
                                ),
                            )
                        )
                        preceding += n
                        result.blocks_accessed += blocks
                        result.candidates_examined += candidates
                        result.tuples_examined += tuples
                        self._account(sid, blocks, device_reads, deltas)
                        if preceding >= query.k:
                            break
                    in_topk = preceding < query.k
                    if in_topk:
                        result.qualifying.append(index)
                    if fspan is not None:
                        fspan.add("preceding", preceding)
                        fspan.add("in_topk", int(in_topk))
        except _SHARD_FAULTS as exc:
            self._abort_cleanup({}, 0, exc)  # no session; respawn only
            raise QueryAbortedError(
                f"sharded reverse top-k aborted after "
                f"{result.blocks_accessed} block fetch(es): {exc}",
                partial_rows=[],
                blocks_accessed=result.blocks_accessed,
                cause=_abort_cause(exc),
            ) from exc
        return result

    # ------------------------------------------------------------------
    # top-k scatter-gather
    # ------------------------------------------------------------------
    def _run_one(self, query: TopKQuery) -> QueryResult:
        query.validate_against(self.cube.schema)
        return self._with_failover(lambda: self._run_one_attempt(query))

    def _run_one_attempt(self, query: TopKQuery) -> QueryResult:
        tracer = Tracer(self.registry) if self.trace_spans else None
        started = time.perf_counter()
        with maybe_span(
            tracer,
            "query",
            k=query.k,
            selections=dict(sorted(query.selections.items())),
            ranking=",".join(query.ranking.dims),
        ) as query_span:
            try:
                result, rounds, steps = self._scatter_gather(query, tracer)
            except QueryAbortedError as exc:
                self._retain_spans(tracer)
                consulted = len(self._targets(query.selections))
                self._record(
                    started, consulted, 0, 0, exc.blocks_accessed, 0, 0, True
                )
                raise
            if query_span is not None:
                query_span.add_many(
                    blocks_accessed=result.blocks_accessed,
                    candidates_examined=result.candidates_examined,
                    tuples_examined=result.tuples_examined,
                    rows_returned=len(result.rows),
                )
        self._retain_spans(tracer)
        self._record(
            started, len(result.shard_io), rounds, steps,
            result.blocks_accessed, result.candidates_examined,
            result.tuples_examined, False,
        )
        return result

    def _scatter_gather(
        self, query: TopKQuery, tracer: Tracer | None
    ) -> tuple[QueryResult, int, int]:
        """The merge loop; returns (result, merge rounds, shard steps)."""
        pool = self._transport
        targets = self._targets(query.selections)
        request_id = next(self._request_ids)
        shards = self.cube.shards
        k = query.k
        open_steps, trip_steps = self._open_steps, self._trip_steps
        topk: list[tuple[float, int]] = []
        #: every shard an open was attempted on (what an abort must close)
        handles: dict[int, object] = {}
        #: ``best_unseen`` of each shard still on the frontier, in target
        #: order; a shard leaves when exhausted or locally certified
        frontier: dict[int, float] = {}
        #: steps each shard took; its labelled series moves once per query
        taken = dict.fromkeys(targets, 0)
        rounds = 0
        guard = self._guard

        def _open(sid: int):
            handle = handles[sid] = pool.handle(sid)
            return handle.open(
                request_id, query, None, open_steps, tracer is not None
            )

        def _step(sid: int, kth):
            return guard(
                "merge_round", sid, handles[sid].step, request_id, kth, trip_steps
            )

        def _absorb(sid: int, batch: tuple, asked: int) -> None:
            """Fold one batch into the global heap and the frontier.

            A batch that was asked for steps, took none and is not
            exhausted means the endpoint certified its *local* top-k
            (its stop rules are otherwise the strict complement of the
            eligibility check, on the same bound and the same ``kth``)
            — no further step can change this shard's contribution.
            """
            scored, best_unseen, exhausted, took, delta_rows = batch
            to_global = shards[sid].to_global
            for score, local_tid in delta_rows:  # no block bound: always
                push_topk(topk, k, score, to_global(local_tid))
            for score, local_tid in scored:
                push_topk(topk, k, score, to_global(local_tid))
            if exhausted or (asked and not took):
                frontier.pop(sid, None)
            else:
                frontier[sid] = best_unseen
            taken[sid] += took

        try:
            with maybe_span(
                tracer, "shard_merge", shards=list(targets)
            ) as merge_span:
                # scatter: one session per shard, delta rows included
                batches: dict[int, tuple] = {}
                self._fan_out(
                    targets, lambda sid: guard("scatter", sid, _open, sid), batches
                )
                for sid in targets:
                    _absorb(sid, batches[sid], open_steps)

                # gather: step the eligible shards, refreshing kth
                while True:
                    kth = -topk[0][0] if len(topk) >= k else None
                    eligible = [
                        sid
                        for sid, bound in frontier.items()
                        if kth is None or bound <= kth
                    ]
                    if not eligible:
                        break
                    rounds += 1
                    batches = {}
                    self._fan_out(eligible, _step, batches, kth)
                    for sid in eligible:
                        _absorb(sid, batches[sid], trip_steps)

                # finish: collect per-shard accounting + observability.
                # Inside the merge span on purpose: session span trees
                # are adopted while their new parent is still open.
                result = QueryResult(shard_io={})
                for sid in sorted(handles):
                    closed = guard("finish", sid, handles[sid].close, request_id)
                    adopt_spans(merge_span, self._fold_close(sid, closed, result))
                steps = sum(taken.values())
                if merge_span is not None:
                    merge_span.add_many(merge_rounds=rounds, shard_steps=steps)
        except _SHARD_FAULTS as exc:
            blocks = self._abort_cleanup(handles, request_id, exc)
            raise QueryAbortedError(
                f"sharded query aborted after {blocks} block fetch(es): {exc}",
                partial_rows=rows_from_heap(topk),
                blocks_accessed=blocks,
                cause=_abort_cause(exc),
            ) from exc
        finally:
            for sid, took in taken.items():
                if took:
                    self._shard_series(sid)[0].inc(took)
        rows = rows_from_heap(topk)
        if query.projection:
            rows = [self._project(row, query) for row in rows]
        result.rows = rows
        return result, rounds, steps

    def _project(self, row: ResultRow, query: TopKQuery) -> ResultRow:
        try:
            record = self.cube.fetch_by_tid(row.tid)
        except StorageError as exc:
            owner = self.cube._owner.get(row.tid)
            if owner is not None:
                _blame_shard(exc, owner[0])
            raise
        schema = self.cube.schema
        values = tuple(
            record[schema.position(name)] for name in (query.projection or ())
        )
        return ResultRow(tid=row.tid, score=row.score, values=values)

    # ------------------------------------------------------------------
    def _record(
        self,
        started: float,
        shards: int,
        rounds: int,
        steps: int,
        blocks: int,
        candidates: int,
        tuples: int,
        aborted: bool,
    ) -> None:
        latency_s = time.perf_counter() - started
        record = ShardedQueryRecord(
            latency_s=latency_s,
            shards_consulted=shards,
            merge_rounds=rounds,
            shard_steps=steps,
            blocks_accessed=blocks,
            candidates_examined=candidates,
            tuples_examined=tuples,
            aborted=aborted,
        )
        with self._stats_lock:
            self.stats.records.append(record)
        self._queries_counter.inc()
        if aborted:
            self._aborted_counter.inc()
        self._latency_hist.observe(latency_s)

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
    def cold_cache(self) -> None:
        """Evict every shard's buffered pages *and* shared caches."""
        self._transport.cold_cache()

    def invalidate_caches(self) -> None:
        """Drop the shared caches of every shard served in this process
        (a worker process's caches are only reachable by
        :meth:`cold_cache`)."""
        for endpoint in self._transport.local_endpoints().values():
            endpoint.clear_caches()

    def shard_cache_stats(self) -> dict[int, dict[str, int]]:
        """Per-shard pseudo-block cache counters of the shards served in
        this process (empty when the caches are disabled)."""
        return {
            shard_id: endpoint.pseudo_cache.stats.snapshot()
            for shard_id, endpoint in self._transport.local_endpoints().items()
            if endpoint.pseudo_cache is not None
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop accepting queries, drain pools, release the shards."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=wait)
        if self._step_pool is not None:
            self._step_pool.shutdown(wait=wait)
        self._transport.close()
        if self._owned_spill_dir is not None:
            shutil.rmtree(self._owned_spill_dir, ignore_errors=True)
            self._owned_spill_dir = None

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
