"""One shard's serving endpoint, and the in-process pool of them.

A :class:`ShardEndpoint` owns one shard's serving stack (the
:class:`~repro.serve.service.ServingStack` the unsharded service builds
too: executor, per-shard pseudo-block cache, bound memo and block
cache, invalidation hook) and the sessions open on it.  It is the
*only* place per-shard execution lives: the sharded front end
(:mod:`repro.serve.sharded`) reaches it through seven calls —

==============  ========================================================
``open``        start a top-k session, merge-ready delta rows included,
                and run its first ``max_steps`` frontier steps
``step``        up to ``max_steps`` more steps under the global ``kth``
``open_enum``   start an any-k enumeration session, first rows included
``next_rows``   the next certified ``(score, local tid)`` rows
``reverse_count``  predecessors of a reverse top-k target, per live
                   function (no session)
``close``       end a session; returns its work and I/O accounting
``cold_cache``  drop buffered pages and shared caches
==============  ========================================================

— either directly (:class:`LocalShardPool`, ``mode="thread"``) or framed
as :mod:`~repro.serve.wire` messages by a worker process that holds the
endpoint (:mod:`repro.serve.procpool`, ``mode="process"``).  Both run
this code, so the two modes cannot drift apart.  Calls return plain
tuples in the field order of the matching wire reply; storage faults
propagate as typed :class:`~repro.storage.device.StorageError`\\ s and a
misused session id as :class:`~repro.serve.wire.WireError`.
"""

from __future__ import annotations

import threading
from dataclasses import replace

from ..core.anyk import AnyKCursor
from ..core.executor import ProgressiveSearch
from ..core.reverse import ReverseTopKResult, count_family
from ..obs.metrics import MetricsRegistry, diff_counter_items
from ..obs.tracing import Tracer, maybe_span
from ..shard.builder import ShardedCube, clone_shard
from .service import ServingStack
from .wire import WireError


class ProcPoolError(RuntimeError):
    """Pool misuse or an unservable shard (no cube, no replica left to
    promote, respawn retries exhausted)."""


class _Session:
    """One open progressive search (or any-k cursor) on an endpoint.

    ``cursor`` is None for top-k sessions; enumeration sessions alias
    ``search`` to their cursor's underlying :class:`ProgressiveSearch`
    so :meth:`ShardEndpoint.close` accounts for both kinds identically.
    The shard's *local* top-k is the search's own ``topk`` heap.
    """

    __slots__ = (
        "search", "cursor", "tracer", "io_before", "counters_before", "rounds",
    )

    def __init__(self, search, cursor, tracer, io_before, counters_before):
        self.search = search
        self.cursor = cursor
        self.tracer = tracer
        self.io_before = io_before
        self.counters_before = counters_before
        self.rounds = 0


class ShardEndpoint:
    """One shard's serving stack plus the sessions open on it.

    ``ship_counters`` is set by a worker process: the front end cannot
    read the worker's registry, so ``close`` / ``reverse_count`` return
    the registry's per-call counter delta.  An in-process endpoint's
    registry is the shard's own live registry — nothing to ship, and no
    ``counter_items()`` snapshot per query.

    Sessions are keyed by the front end's request id; distinct sessions
    may be driven from different threads, one session from one thread at
    a time (the merge loop never has two calls in flight on a session).
    """

    #: the in-process stack cannot hang up; worker handles report their
    #: process's liveness under the same name
    alive = True

    def __init__(
        self,
        shard_id: int,
        db,
        table,
        cube,
        *,
        share_caches: bool = True,
        ship_counters: bool = False,
    ):
        self.shard_id = shard_id
        self.db = db
        self.cube = cube
        self.registry = getattr(db.pool, "registry", None) or MetricsRegistry()
        self._ship_counters = ship_counters
        self._stack = ServingStack(
            cube,
            table,
            self.registry,
            share_caches=share_caches,
        )
        self.pseudo_cache = self._stack.pseudo_cache
        self.bound_memo = self._stack.bound_memo
        self.block_cache = self._stack.block_cache
        self.executor = self._stack.executor
        self._sessions: dict[int, _Session] = {}

    @property
    def open_sessions(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def _start(self, request_id: int, trace: bool):
        """What every new session records before it touches the shard."""
        if request_id in self._sessions:
            raise WireError(f"session {request_id} already open")
        return (
            Tracer(self.registry) if trace else None,
            self.db.io_snapshot(),
            self.registry.counter_items() if self._ship_counters else None,
        )

    def _session(self, request_id: int) -> _Session:
        session = self._sessions.get(request_id)
        if session is None:
            raise WireError(f"no open session {request_id}")
        return session

    def open(self, request_id, query, kth, max_steps, trace):
        """Open a top-k session: ``(scored, best_unseen, exhausted,
        steps, delta_rows)``, the last merge-ready and unconditional."""
        started = self._start(request_id, trace)
        search = ProgressiveSearch(self.executor, query)
        session = _Session(search, None, *started)
        self._sessions[request_id] = session
        return self._batch(session, kth, max_steps, opening=True)

    def step(self, request_id, kth, max_steps):
        """Continue a top-k session (``delta_rows`` is always empty)."""
        return self._batch(self._session(request_id), kth, max_steps)

    def _batch(self, session: _Session, kth, max_steps, opening=False):
        """One trip's worth of the session's search.

        The search steps under its own stop rule (:meth:`~repro.core
        .executor.ProgressiveSearch.run`): up to ``max_steps``, until
        exhaustion, until the global ``kth`` prunes the shard, or until
        the shard's *local* top-k is certified — no further step can
        then change this shard's contribution to any global answer,
        which is exactly where a per-shard executor stops too.  Delta
        rows join the local top-k after the frontier, as they do there.
        """
        search = session.search
        delta_rows: list[tuple[float, int]] = []
        with maybe_span(
            session.tracer, "shard_batch",
            shard=self.shard_id, round=session.rounds,
        ) as span:
            if opening:
                delta_rows = search.delta_rows()
            scored, steps = search.run(kth, max_steps)
            if span is not None:
                span.add_many(steps=steps, scored=len(scored))
                if opening:
                    span.add("delta_rows", len(delta_rows))
        search.offer(delta_rows)
        session.rounds += 1
        return scored, search.best_unseen, search.exhausted, steps, delta_rows

    def open_enum(self, request_id, query, count, trace):
        """Open an enumeration session: ``(rows, exhausted)``, the first
        ``count`` certified ``(score, local tid)`` rows."""
        started = self._start(request_id, trace)
        if query.projection is not None:
            # the front end projects from global tids after the merge
            query = replace(query, projection=None)
        cursor = AnyKCursor(self.executor, query)
        self._sessions[request_id] = _Session(cursor.search, cursor, *started)
        return self.next_rows(request_id, count)

    def next_rows(self, request_id, count):
        """The next certified rows of an enumeration session."""
        session = self._session(request_id)
        cursor = session.cursor
        if cursor is None:
            raise WireError(f"session {request_id} is not an enumeration")
        with maybe_span(
            session.tracer, "shard_enum_batch",
            shard=self.shard_id, round=session.rounds,
        ) as span:
            rows = cursor.next_batch(count)
            if span is not None:
                span.add_many(rows=len(rows))
        session.rounds += 1
        return [(row.score, row.tid) for row in rows], cursor.exhausted

    def close(self, request_id):
        """End a session: ``(blocks_accessed, candidates_examined,
        tuples_examined, device_reads, counter_deltas, spans)``."""
        session = self._session(request_id)
        del self._sessions[request_id]
        work = session.search.result
        return (
            work.blocks_accessed,
            work.candidates_examined,
            work.tuples_examined,
            self.db.io_since(session.io_before).reads,
            self._deltas(session.counters_before),
            list(session.tracer.roots) if session.tracer is not None else [],
        )

    def _deltas(self, counters_before) -> list:
        if counters_before is None:
            return []
        return diff_counter_items(counters_before, self.registry.counter_items())

    # ------------------------------------------------------------------
    # stateless calls
    # ------------------------------------------------------------------
    def reverse_count(self, selections, members, tie_tid):
        """``(preceding, blocks_accessed, candidates_examined,
        tuples_examined, device_reads, counter_deltas)`` — per member
        ``(fn, t_score, cap)``, this shard's tuples ranked before a
        reverse top-k target, capped at ``cap``, counted in one family
        pass over one snapshot; ``tie_tid`` is shard-local."""
        io_before = self.db.io_snapshot()
        counters_before = (
            self.registry.counter_items() if self._ship_counters else None
        )
        work = ReverseTopKResult()
        preceding = count_family(
            self.executor, selections, members, tie_tid, work
        )
        return (
            preceding,
            work.blocks_accessed,
            work.candidates_examined,
            work.tuples_examined,
            self.db.io_since(io_before).reads,
            self._deltas(counters_before),
        )

    def cold_cache(self) -> None:
        self.db.cold_cache()
        self.clear_caches()

    def clear_caches(self) -> None:
        self._stack.clear()

    def unhook(self) -> None:
        self._stack.unhook()


class LocalShardPool:
    """The endpoints of a :class:`ShardedCube` served inside this process.

    The in-process counterpart of :class:`~repro.serve.procpool
    .ProcessShardPool`, behind the same ``shard_ids / handle / promote /
    cold_cache / close`` surface.  Endpoints are built on first use (a
    shard that was empty at construction gets one once an append builds
    its cube).  Warm replicas are point-in-time :func:`clone_shard`
    copies kept on a per-shard bench; :meth:`promote` swaps the next one
    into the deployment.
    """

    def __init__(
        self,
        cube: ShardedCube,
        *,
        options: dict | None = None,
        registry: MetricsRegistry | None = None,
        fault_hook=None,
        replicas: int = 0,
    ):
        self.cube = cube
        self.options = dict(options or {})
        self.registry = registry if registry is not None else MetricsRegistry()
        self.fault_hook = fault_hook
        self.replicas = replicas
        self._endpoints: dict[int, ShardEndpoint] = {}
        self._bench: dict[int, list] = {}
        self._lock = threading.Lock()
        self.refresh_replicas()

    #: a call is a method call on GIL-bound code over a device that never
    #: waits: the merge runs it on the query's own thread (a hand-off to
    #: another thread could not overlap it with anything)
    calls_block = False

    def trip_steps(self, step_batch: int) -> tuple[int, int]:
        """``(steps run by open, steps per later call)``.  A call is
        free here — no hand-off, no round trip — so the merge refreshes
        the global k-th and picks the lowest-bound shard after every
        step, and takes none before every shard's delta rows are merged;
        batching would only step shards the fresher bound prunes."""
        return 0, 1

    @property
    def shard_ids(self) -> list[int]:
        return [s.shard_id for s in self.cube.shards if s.cube is not None]

    def handle(self, shard_id: int) -> ShardEndpoint:
        endpoint = self._endpoints.get(shard_id)
        if endpoint is None:
            with self._lock:
                endpoint = self._endpoints.get(shard_id)
                if endpoint is None:
                    endpoint = self._install(self.cube.shards[shard_id])
        return endpoint

    def _install(self, shard) -> ShardEndpoint:
        if shard.cube is None:
            raise ProcPoolError(
                f"shard {shard.shard_id} has no cube (empty shard?)"
            )
        endpoint = ShardEndpoint(
            shard.shard_id, shard.db, shard.table, shard.cube, **self.options
        )
        self._endpoints[shard.shard_id] = endpoint
        return endpoint

    def local_endpoints(self) -> dict[int, ShardEndpoint]:
        """Endpoints reachable in this process, by shard id."""
        return dict(sorted(self._endpoints.items()))

    def refresh_replicas(self) -> None:
        """(Re)clone every shard's warm replicas from its current stack.

        A replica is a point-in-time clone: rows appended after cloning
        make it stale, and a stale replica is *rejected* at promotion
        rather than silently losing rows — call this after appends to
        re-arm failover.
        """
        with self._lock:
            self._bench = {
                shard.shard_id: [
                    clone_shard(shard) for _ in range(self.replicas)
                ]
                for shard in self.cube.shards
                if shard.cube is not None
            }

    def promote(self, shard_id: int) -> ShardEndpoint:
        """Swap the shard's next healthy replica into the deployment."""
        with self._lock:
            bench = self._bench.get(shard_id, [])
            while bench:
                # fire the fault seam *before* consuming the clone: a
                # crash at the promotion instant must not burn the warm
                # standby it never installed
                if self.fault_hook is not None:
                    self.fault_hook("promote", shard_id)
                replica = bench.pop(0)
                try:
                    self.cube.replace_shard(shard_id, replica)
                except Exception:
                    continue  # stale or mismatched clone
                old = self._endpoints.pop(shard_id, None)
                if old is not None:
                    old.unhook()
                endpoint = self._install(replica)
                self.registry.counter(
                    "shard.replica.promotions", shard=str(shard_id)
                ).inc()
                # refill the bench from the healthy replica so a second
                # failure still finds a warm copy
                bench.append(clone_shard(replica))
                return endpoint
        raise ProcPoolError(
            f"shard {shard_id} has no warm replica left to promote"
        )

    def cold_cache(self) -> None:
        for shard_id in self.shard_ids:
            self.handle(shard_id).cold_cache()

    def close(self) -> None:
        for endpoint in self._endpoints.values():
            endpoint.unhook()
