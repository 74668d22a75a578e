"""Wire protocol of the process-per-shard serving tier.

Frames are **length-prefixed pickles** over a :mod:`multiprocessing`
pipe: a fixed 5-byte header (magic byte ``R`` + little-endian ``uint32``
payload length) followed by exactly that many pickle bytes.  The header
is redundant with the pipe's own framing on purpose — a torn or
misaligned frame surfaces as a typed :class:`WireError` instead of a
pickle of garbage, and the protocol would survive a move from pipes to
raw sockets unchanged.

Every message is a small frozen dataclass below; the payload types they
carry (:class:`~repro.relational.query.TopKQuery`,
:class:`~repro.relational.query.QueryResult` fragments, typed storage
errors, :class:`~repro.obs.tracing.Span` trees, structured registry
rows) are all plain picklable data.  **Anything added to these messages
becomes wire format**: the pickle round-trip property suite
(``tests/properties/test_result_pickle.py``) pins the invariant that
none of it silently becomes unpicklable.

Request/response pairing is strict: the worker serves one request at a
time in arrival order, and the front end holds a per-worker lock across
each send/receive, so a response always answers the most recent request
on that pipe.  ``request_id`` still travels with search messages — the
worker keys its open search sessions by it, and the front end asserts
the pairing as a cheap corruption check.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field

from ..relational.query import TopKQuery

_MAGIC = b"R"
_HEADER = struct.Struct("<cI")

#: Public aliases of the framing constants.  The write-ahead log
#: (:mod:`repro.ingest.wal`) reuses the same header discipline — magic
#: byte + little-endian ``uint32`` payload length — with its own magic,
#: so both on-wire and on-disk records share one framing idiom.
FRAME_HEADER = _HEADER
FRAME_MAGIC = _MAGIC

#: Frontier steps a worker runs per round trip when the caller does not
#: say otherwise.  Small enough that the global k-th bound refreshes
#: often (preserving the early-stop merge's pruning), large enough that
#: pipe round trips amortize over real block work.
DEFAULT_STEP_BATCH = 8


class WireError(RuntimeError):
    """A malformed frame on the worker pipe (bad magic, short payload)."""


class WorkerDiedError(RuntimeError):
    """The worker process hung up (or timed out) mid-conversation.

    Carries the shard id so the serving layer can respawn the right
    worker; the in-flight query degrades to the typed
    :class:`~repro.core.executor.QueryAbortedError` path.
    """

    def __init__(self, message: str, *, shard_id: int):
        super().__init__(message)
        self.shard_id = shard_id

    def __reduce__(self):
        return (_rebuild_worker_died, (str(self), self.shard_id))


def _rebuild_worker_died(message, shard_id):
    return WorkerDiedError(message, shard_id=shard_id)


def send_msg(conn, message) -> None:
    """Frame and send one message (length-prefixed pickle)."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    conn.send_bytes(_HEADER.pack(_MAGIC, len(payload)) + payload)


def recv_msg(conn, timeout: float | None = None):
    """Receive one framed message.

    Raises :class:`TimeoutError` when nothing arrives within ``timeout``
    seconds, :class:`EOFError` when the peer hung up, and
    :class:`WireError` on a frame that fails validation.
    """
    if timeout is not None and not conn.poll(timeout):
        raise TimeoutError(f"no frame within {timeout}s")
    data = conn.recv_bytes()
    if len(data) < _HEADER.size:
        raise WireError(f"short frame: {len(data)} byte(s)")
    magic, length = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise WireError(f"bad frame magic {magic!r}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise WireError(
            f"frame header promises {length} payload byte(s), got {len(payload)}"
        )
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# requests (front end -> worker)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenSearch:
    """Start a progressive search session and run its first step batch.

    ``kth`` is the front end's current global k-th best score (``None``
    until the global heap is full); the worker steps while its certified
    ``best_unseen`` bound is ``<= kth`` (non-strict — the same continue
    rule the thread-mode merge uses, so tid tie-breaking survives), while
    its *local* top-k is not yet certified, and while ``max_steps`` is
    not exhausted.
    """

    request_id: int
    query: TopKQuery
    kth: float | None = None
    max_steps: int = DEFAULT_STEP_BATCH
    trace: bool = False


@dataclass(frozen=True)
class StepBatch:
    """Continue an open session for up to ``max_steps`` more steps."""

    request_id: int
    kth: float | None = None
    max_steps: int = DEFAULT_STEP_BATCH


@dataclass(frozen=True)
class CloseSearch:
    """End a session; the worker replies with counters + observability.

    Closes both kinds of session — batched top-k searches *and* any-k
    enumeration cursors (:class:`OpenEnum`)."""

    request_id: int


@dataclass(frozen=True)
class OpenEnum:
    """Open an any-k enumeration session and fetch its first rows.

    The worker pins an :class:`~repro.core.anyk.AnyKCursor` on its shard
    snapshot, keyed by ``request_id`` like a search session, and replies
    with a :class:`NextBatch` of up to ``count`` certified rows.  The
    query travels with ``projection=None`` — the front end projects from
    global tids after the merge.
    """

    request_id: int
    query: TopKQuery
    count: int = DEFAULT_STEP_BATCH
    trace: bool = False


@dataclass(frozen=True)
class StepNext:
    """Pull the next certified rows from an open enumeration session."""

    request_id: int
    count: int = DEFAULT_STEP_BATCH


@dataclass(frozen=True)
class ReverseCount:
    """Count this shard's tuples preceding a reverse top-k target.

    Stateless single round trip (no session), one per shard and query:
    ``members`` holds a ``(ranking function, target's exact score,
    predecessor cap)`` triple per function still live, ``selections``
    scope the competition, and ``tie_tid`` is the *shard-local* tid
    threshold for score ties — the target's insertion position in this
    shard's tid map, so local order agrees with global ``(score, gtid)``
    order (tid maps are monotone).
    """

    request_id: int
    selections: dict
    members: list
    tie_tid: int


@dataclass(frozen=True)
class ColdCache:
    """Drop the worker's buffered pages and shared caches (bench regime)."""


@dataclass(frozen=True)
class Ping:
    """Health probe; the worker answers :class:`Pong` immediately."""


@dataclass(frozen=True)
class Shutdown:
    """Orderly exit: the worker drains nothing and leaves its loop."""


# ----------------------------------------------------------------------
# responses (worker -> front end)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchBatch:
    """One round's scored candidates from a shard.

    ``delta_rows`` is non-empty only on the opening batch: the snapshot's
    delta store carries no block bound, so its matches merge into the
    global heap unconditionally before the frontier loop (exactly as in
    thread mode).  Tids are **shard-local**; the front end translates via
    the shard's tid map.
    """

    request_id: int
    scored: list[tuple[float, int]]
    best_unseen: float
    exhausted: bool
    steps: int
    delta_rows: list[tuple[float, int]] = field(default_factory=list)


@dataclass(frozen=True)
class SearchClosed:
    """End-of-session accounting shipped across the process boundary.

    ``counter_deltas`` is the worker registry's per-query delta in
    :meth:`~repro.obs.metrics.MetricsRegistry.counter_items` form;
    ``spans`` are the worker tracer's completed root spans (empty unless
    the session was opened with ``trace=True``).
    """

    request_id: int
    blocks_accessed: int
    candidates_examined: int
    tuples_examined: int
    device_reads: int
    counter_deltas: list = field(default_factory=list)
    spans: list = field(default_factory=list)


@dataclass(frozen=True)
class NextBatch:
    """Certified enumeration rows from one shard, in rank order.

    ``rows`` are ``(score, local_tid)`` pairs; an ``exhausted`` reply
    with fewer than the requested rows means the shard's snapshot has no
    further matches (never *try again*).  The session stays open for
    accounting until :class:`CloseSearch`.
    """

    request_id: int
    rows: list[tuple[float, int]]
    exhausted: bool


@dataclass(frozen=True)
class ReverseCounted:
    """Answer to :class:`ReverseCount`: the predecessors per member, in
    member order, with per-call work accounting."""

    request_id: int
    preceding: list
    blocks_accessed: int
    candidates_examined: int
    tuples_examined: int
    device_reads: int
    counter_deltas: list = field(default_factory=list)


@dataclass(frozen=True)
class Pong:
    shard_id: int
    pid: int
    rows: int
    #: "primary" or "replica" — which role the worker was spawned into;
    #: a promoted replica keeps reporting "replica" (process identity is
    #: fixed at spawn), which is how the failover suite tells a warm
    #: promotion apart from a cold respawn.
    role: str = "primary"
    #: sessions the worker holds open (each pins a cube snapshot and a
    #: frontier until closed) — 0 on an idle worker, or a session leaked
    open_sessions: int = 0


@dataclass(frozen=True)
class Ack:
    """Generic success reply for administrative requests."""


@dataclass(frozen=True)
class WorkerFault:
    """A typed failure while serving one request.

    ``error`` is the pickled typed exception itself (storage errors and
    :class:`~repro.core.executor.QueryAbortedError` round-trip pickle by
    contract), so the front end re-raises the same type it would have
    seen in thread mode.
    """

    request_id: int | None
    error: Exception
    blocks_accessed: int = 0
