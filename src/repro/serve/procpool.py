"""Process-per-shard workers: the pipe transport of the sharded tier.

With the in-process pool (:class:`~repro.serve.endpoint.LocalShardPool`)
every shard's retrieve/evaluate loop runs in one interpreter, so
multi-shard serving is GIL-bound.  This module puts each shard's
:class:`~repro.serve.endpoint.ShardEndpoint` — and with it the shard's
*entire* serving stack: :class:`~repro.storage.device.BlockDevice`,
buffer pool, cube snapshot, shared caches, open sessions — into a
long-lived **worker process** that owns it exclusively, and gives the
front end a :class:`ShardWorkerHandle` with the endpoint's own calls:

* **Bootstrap** — workers start from the spawn context
  (:func:`spawn_context`) and warm-start from the
  shard's persisted :class:`~repro.persist.Workspace` snapshot, verified
  against the SHA-256 pin in the shard manifest.  A respawned worker
  therefore always serves byte-identical state to the one it replaces.
* **Protocol** — length-prefixed pickle frames (:mod:`repro.serve.wire`)
  over a :func:`multiprocessing.Pipe`; one request at a time per worker,
  each naming one endpoint call (:func:`_dispatch`), sessions keyed by
  request id so many front-end queries can interleave rounds on one
  worker.  The worker adds no logic of its own to a call.
* **Failure** — a worker death mid-conversation surfaces as a typed
  :class:`~repro.serve.wire.WorkerDiedError`; the pool respawns the
  worker from the pinned snapshot (bounded, with retries) or promotes a
  warm standby, while the affected queries degrade to the
  :class:`~repro.core.executor.QueryAbortedError` path.
* **Observability** — the worker executes under its own process-local
  :class:`~repro.obs.metrics.MetricsRegistry`; each closed session ships
  the per-query counter deltas and completed span trees back, and the
  front end folds them into its registry/span tree (see
  ``ShardedQueryService``), so rendered span trees and the golden-trace
  suite see one coherent tree per query.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from pathlib import Path

from ..obs.metrics import MetricsRegistry
from . import wire
from .endpoint import ProcPoolError, ShardEndpoint

#: Seconds the front end waits on a worker reply before declaring it dead.
DEFAULT_WORKER_TIMEOUT = 60.0
#: Seconds a fresh worker gets to load its snapshot and report ready.
DEFAULT_START_TIMEOUT = 120.0
#: Respawn attempts before the pool gives a shard up as unservable.
DEFAULT_RESPAWN_RETRIES = 2


def spawn_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every shard worker starts from.

    ``spawn`` starts workers from a fresh interpreter instead of forking:
    a forked child inherits the parent's locks and threads mid-state (the
    serving layer runs background compactors and worker pools, so a fork
    taken at the wrong instant can deadlock on a held registry or buffer
    latch), while a spawned child re-imports and rebuilds its state from
    pickled payloads only, so "what a worker sees" is always "what was
    explicitly shipped to it".
    """
    return multiprocessing.get_context("spawn")


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _load_endpoint(
    directory: str, entry: dict, cube_name: str, options: dict
) -> ShardEndpoint:
    """Load the pinned snapshot and stand the shard's endpoint on it."""
    from ..persist import load_pinned_shard

    workspace = load_pinned_shard(directory, entry)
    return ShardEndpoint(
        int(entry["shard_id"]),
        workspace.db,
        workspace.db.table(cube_name),
        workspace.cubes[cube_name],
        share_caches=options.get("share_caches", True),
        ship_counters=True,
    )


def _shard_worker_main(conn, directory: str, entry: dict, cube_name: str, options: dict):
    """Worker process entry point: bootstrap, then the request loop."""
    try:
        endpoint = _load_endpoint(directory, entry, cube_name, options)
    except Exception as exc:
        try:
            wire.send_msg(conn, wire.WorkerFault(request_id=None, error=exc))
        finally:
            conn.close()
        return
    wire.send_msg(
        conn,
        wire.Pong(
            shard_id=endpoint.shard_id,
            pid=os.getpid(),
            rows=int(entry["rows"]),
            role=options.get("role", "primary"),
        ),
    )

    while True:
        try:
            msg = wire.recv_msg(conn)
        except (EOFError, OSError):
            break
        request_id = getattr(msg, "request_id", None)
        try:
            reply = _dispatch(msg, endpoint)
        except Exception as exc:  # typed faults and bad requests alike:
            # ship it, never die silently (the front end's abort closes
            # the session, which is where its block count comes from)
            reply = wire.WorkerFault(request_id=request_id, error=exc)
        if reply is None:  # Shutdown
            break
        try:
            wire.send_msg(conn, reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _dispatch(msg, endpoint: ShardEndpoint):
    """Frame one request as the endpoint call it names, and the call's
    result tuple as the matching reply."""
    rid = getattr(msg, "request_id", None)
    if isinstance(msg, wire.StepBatch):
        return wire.SearchBatch(rid, *endpoint.step(rid, msg.kth, msg.max_steps))
    if isinstance(msg, wire.OpenSearch):
        return wire.SearchBatch(
            rid,
            *endpoint.open(rid, msg.query, msg.kth, msg.max_steps, msg.trace),
        )
    if isinstance(msg, wire.StepNext):
        return wire.NextBatch(rid, *endpoint.next_rows(rid, msg.count))
    if isinstance(msg, wire.OpenEnum):
        return wire.NextBatch(
            rid, *endpoint.open_enum(rid, msg.query, msg.count, msg.trace)
        )
    if isinstance(msg, wire.ReverseCount):
        return wire.ReverseCounted(
            rid, *endpoint.reverse_count(msg.selections, msg.members, msg.tie_tid)
        )
    if isinstance(msg, wire.CloseSearch):
        return wire.SearchClosed(rid, *endpoint.close(rid))
    if isinstance(msg, wire.ColdCache):
        endpoint.cold_cache()
        return wire.Ack()
    if isinstance(msg, wire.Ping):
        return wire.Pong(
            shard_id=endpoint.shard_id,
            pid=os.getpid(),
            rows=0,
            open_sessions=endpoint.open_sessions,
        )
    if isinstance(msg, wire.Shutdown):
        return None
    raise wire.WireError(f"unknown request {type(msg).__name__}")


# ----------------------------------------------------------------------
# front-end side
# ----------------------------------------------------------------------
class ShardWorkerHandle:
    """Parent-side endpoint of one shard worker process.

    Speaks the :class:`~repro.serve.endpoint.ShardEndpoint` calls over
    the pipe: each frames its arguments as the request message, waits
    for the reply and returns the reply's fields as the same tuple the
    in-process call returns.
    """

    def __init__(
        self,
        directory: str | Path,
        entry: dict,
        cube_name: str,
        options: dict,
        *,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
        start_timeout: float = DEFAULT_START_TIMEOUT,
        role: str = "primary",
        replica_index: int = 0,
    ):
        self.shard_id = int(entry["shard_id"])
        self.entry = entry
        self.timeout = timeout
        self.role = role
        self._lock = threading.Lock()
        ctx = spawn_context()
        self._conn, child_conn = ctx.Pipe()
        # Replicas get a distinct process name so the kill harness can
        # target primaries by name without sniping the warm standbys.
        if role == "primary":
            name = f"repro-shard-worker-{self.shard_id}"
        else:
            name = f"repro-shard-replica-{self.shard_id}-{replica_index}"
        worker_options = dict(options, role=role)
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, str(directory), dict(entry), cube_name, worker_options),
            name=name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        try:
            ready = wire.recv_msg(self._conn, timeout=start_timeout)
        except (TimeoutError, EOFError, OSError) as exc:
            self.kill()
            raise wire.WorkerDiedError(
                f"shard {self.shard_id} worker never came up: {exc}",
                shard_id=self.shard_id,
            ) from exc
        if isinstance(ready, wire.WorkerFault):
            self.kill()
            raise ready.error
        if not isinstance(ready, wire.Pong):
            self.kill()
            raise wire.WireError(f"unexpected ready message {ready!r}")

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def request(self, message, timeout: float | None = None):
        """One send/receive round trip; raises WorkerDiedError on hangup."""
        deadline = self.timeout if timeout is None else timeout
        with self._lock:
            try:
                wire.send_msg(self._conn, message)
                reply = wire.recv_msg(self._conn, timeout=deadline)
            except (EOFError, OSError, TimeoutError) as exc:
                raise wire.WorkerDiedError(
                    f"shard {self.shard_id} worker died mid-request "
                    f"({type(message).__name__}): {exc}",
                    shard_id=self.shard_id,
                ) from exc
        if isinstance(reply, wire.WorkerFault):
            raise reply.error
        return reply

    # ------------------------------------------------------------------
    # the endpoint calls, framed
    # ------------------------------------------------------------------
    def open(self, request_id, query, kth, max_steps, trace):
        b = self.request(wire.OpenSearch(request_id, query, kth, max_steps, trace))
        return b.scored, b.best_unseen, b.exhausted, b.steps, b.delta_rows

    def step(self, request_id, kth, max_steps):
        b = self.request(wire.StepBatch(request_id, kth, max_steps))
        return b.scored, b.best_unseen, b.exhausted, b.steps, b.delta_rows

    def open_enum(self, request_id, query, count, trace):
        b = self.request(wire.OpenEnum(request_id, query, count, trace))
        return b.rows, b.exhausted

    def next_rows(self, request_id, count):
        b = self.request(wire.StepNext(request_id, count))
        return b.rows, b.exhausted

    def reverse_count(self, selections, members, tie_tid):
        # stateless: no session, so the id names none (real ids start at 1)
        r = self.request(wire.ReverseCount(0, selections, members, tie_tid))
        return (
            r.preceding, r.blocks_accessed, r.candidates_examined,
            r.tuples_examined, r.device_reads, r.counter_deltas,
        )

    def close(self, request_id):
        c = self.request(wire.CloseSearch(request_id))
        return (
            c.blocks_accessed, c.candidates_examined, c.tuples_examined,
            c.device_reads, c.counter_deltas, c.spans,
        )

    def cold_cache(self) -> None:
        self.request(wire.ColdCache())

    @property
    def open_sessions(self) -> int:
        return self.request(wire.Ping()).open_sessions

    def kill(self) -> None:
        """Hard-stop the process and close the pipe (idempotent)."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        finally:
            try:
                self._conn.close()
            except OSError:
                pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Orderly stop; falls back to kill when the worker does not exit."""
        try:
            with self._lock:
                wire.send_msg(self._conn, wire.Shutdown())
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.kill()


class ProcessShardPool:
    """All shard workers of one process-mode service, plus respawn logic."""

    def __init__(
        self,
        directory: str | Path,
        manifest: dict,
        *,
        options: dict | None = None,
        timeout: float = DEFAULT_WORKER_TIMEOUT,
        respawn_retries: int = DEFAULT_RESPAWN_RETRIES,
        registry: MetricsRegistry | None = None,
        fault_hook=None,
        replicas: int = 0,
    ):
        self.directory = Path(directory)
        self.manifest = manifest
        self.cube_name = manifest["name"]
        self.options = dict(options or {})
        self.timeout = timeout
        self.respawn_retries = respawn_retries
        self.registry = registry if registry is not None else MetricsRegistry()
        #: test seam: ``fault_hook(point, shard_id)`` fires at protocol
        #: points ("respawn"/"promote" here; the service adds
        #: scatter/merge points)
        self.fault_hook = fault_hook
        #: warm standby workers per shard; every standby boots from the
        #: same pinned snapshot as its primary, so a promotion serves
        #: byte-identical state
        self.replicas = replicas
        self._handles: dict[int, ShardWorkerHandle] = {}
        self._standbys: dict[int, list[ShardWorkerHandle]] = {}
        self._replica_seq: dict[int, int] = {}
        self._respawn_locks: dict[int, threading.Lock] = {}
        self._closed = False
        for entry in manifest["shards"]:
            if entry["rows"] == 0:
                continue  # empty shard: no cube, nothing to serve
            shard_id = int(entry["shard_id"])
            self._respawn_locks[shard_id] = threading.Lock()
            self._handles[shard_id] = self._spawn(entry)
            self._replica_seq[shard_id] = 0
            self._standbys[shard_id] = [
                self._spawn_standby(shard_id) for _ in range(replicas)
            ]

    def _spawn(
        self, entry: dict, *, role: str = "primary", replica_index: int = 0
    ) -> ShardWorkerHandle:
        return ShardWorkerHandle(
            self.directory, entry, self.cube_name, self.options,
            timeout=self.timeout, role=role, replica_index=replica_index,
        )

    def _spawn_standby(self, shard_id: int) -> ShardWorkerHandle:
        index = self._replica_seq[shard_id]
        self._replica_seq[shard_id] = index + 1
        return self._spawn(
            self._entry(shard_id), role="replica", replica_index=index
        )

    def _entry(self, shard_id: int) -> dict:
        for entry in self.manifest["shards"]:
            if int(entry["shard_id"]) == shard_id:
                return entry
        raise ProcPoolError(f"no manifest entry for shard {shard_id}")

    #: a call waits on a pipe with the GIL released: the merge overlaps
    #: a round's calls on its step pool
    calls_block = True

    def trip_steps(self, step_batch: int) -> tuple[int, int]:
        """``(steps run by open, steps per later call)``.  A pipe round
        trip costs far more than a step, so each carries ``step_batch``
        of them, up to the next shard's bound.  The open carries none:
        until every shard reports its first bound, a batch could read
        pages that a lower-bounded shard makes unnecessary."""
        return 0, step_batch

    @property
    def shard_ids(self) -> list[int]:
        return sorted(self._handles)

    def local_endpoints(self) -> dict:
        """No endpoint lives in this process — each is in its worker."""
        return {}

    def refresh_replicas(self) -> None:
        """Nothing to re-clone: standbys boot from the pinned snapshot."""

    def handle(self, shard_id: int) -> ShardWorkerHandle:
        """The live handle for a shard, reviving a dead worker first.

        With replicas a dead primary is revived by *promotion* (warm
        standby, no snapshot reload); without, by a cold respawn.
        """
        handle = self._handles.get(shard_id)
        if handle is None:
            raise ProcPoolError(f"shard {shard_id} has no worker (empty shard?)")
        if not handle.alive:
            if self.replicas:
                return self.promote(shard_id)
            return self.respawn(shard_id)
        return handle

    def respawn(self, shard_id: int) -> ShardWorkerHandle:
        """Replace a dead worker from its pinned snapshot (bounded retries).

        Thread-safe and idempotent: concurrent callers for the same shard
        serialize on a per-shard lock, and a handle that is already alive
        again (someone else respawned it first) is returned as-is.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        lock = self._respawn_locks[shard_id]
        with lock:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive:
                return handle
            entry = self._entry(shard_id)
            started = time.perf_counter()
            last_error: Exception | None = None
            for _attempt in range(self.respawn_retries + 1):
                if handle is not None:
                    handle.kill()
                try:
                    handle = self._spawn(entry)
                    if self.fault_hook is not None:
                        self.fault_hook("respawn", shard_id)
                    # health-check the fresh worker: a hook (or a crash
                    # during bootstrap races) may have killed it already
                    handle.request(wire.Ping(), timeout=self.timeout)
                except (wire.WorkerDiedError, OSError) as exc:
                    last_error = exc
                    continue
                self._handles[shard_id] = handle
                self.registry.counter(
                    "shard.pool.respawns", shard=str(shard_id)
                ).inc()
                self.registry.histogram("shard.pool.respawn_s").observe(
                    time.perf_counter() - started
                )
                return handle
            raise ProcPoolError(
                f"shard {shard_id} worker could not be respawned after "
                f"{self.respawn_retries + 1} attempt(s): {last_error}"
            )

    # ------------------------------------------------------------------
    # replica promotion
    # ------------------------------------------------------------------
    def promote(self, shard_id: int) -> ShardWorkerHandle:
        """Replace a dead primary with a warm standby replica.

        The standby booted from the same SHA-256-pinned snapshot as the
        primary it replaces, so the promoted worker serves byte-identical
        state — no replay, no rebuild, promotion cost is one health-check
        round trip.  A replacement standby is spawned immediately so a
        second failure still finds a warm copy.  With no live standby
        (replication off, or every copy dead) this degrades to a cold
        :meth:`respawn` from the snapshot.

        Thread-safe: serializes on the shard's respawn lock, and a
        primary that is already alive again (a concurrent caller won the
        race) is returned as-is.
        """
        if self._closed:
            raise ProcPoolError("pool is closed")
        lock = self._respawn_locks[shard_id]
        with lock:
            handle = self._handles.get(shard_id)
            if handle is not None and handle.alive:
                return handle
            standbys = self._standbys.get(shard_id, [])
            started = time.perf_counter()
            while standbys:
                # fault seam fires before the pop: a kill at the promotion
                # instant leaves the standby on the bench for the retry
                if self.fault_hook is not None:
                    self.fault_hook("promote", shard_id)
                candidate = standbys.pop(0)
                try:
                    candidate.request(wire.Ping(), timeout=self.timeout)
                except (wire.WorkerDiedError, OSError):
                    candidate.kill()
                    continue
                if handle is not None:
                    handle.kill()
                self._handles[shard_id] = candidate
                self.registry.counter(
                    "shard.replica.promotions", shard=str(shard_id)
                ).inc()
                self.registry.histogram("shard.replica.promote_s").observe(
                    time.perf_counter() - started
                )
                try:
                    standbys.append(self._spawn_standby(shard_id))
                except (wire.WorkerDiedError, OSError):
                    # a failed refill must not fail the promotion; the
                    # next promote simply finds one fewer warm copy
                    self.registry.counter(
                        "shard.replica.refill_failures", shard=str(shard_id)
                    ).inc()
                return candidate
        return self.respawn(shard_id)

    def cold_cache(self) -> None:
        """Drop every worker's buffered pages and caches (bench regime).

        Standbys are cooled too: a promotion must hand queries the same
        cold-start determinism the primary had.
        """
        for shard_id in self.shard_ids:
            self.handle(shard_id).cold_cache()
        for standbys in self._standbys.values():
            for standby in standbys:
                if standby.alive:
                    standby.cold_cache()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._handles.values():
            handle.shutdown()
        self._handles.clear()
        for standbys in self._standbys.values():
            for standby in standbys:
                standby.shutdown()
        self._standbys.clear()
