"""Tracing from outside: timing wrappers on the stack's public callables.

The traced pass patches a *declared* list of attributes (see
:func:`declared`) with wrappers that record one span per call — name,
start, end, parent span, op id — in per-thread lists.  :meth:`Tracer.fold`
turns the spans into per-name call counts, inclusive time and **self
time** (a span's duration minus the interval its child spans cover), then
forgets them, so a round's million spans never outlive the round.

Untraced rounds run with nothing installed: :meth:`Tracer.uninstall`
puts every patched attribute back to the very object it held before
(``tests/test_probes.py`` asserts identity).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

#: Layer of the benchmark's own per-op root spans; their self time is the
#: part of an op no probed layer covers.
BENCH_LAYER = "bench"


class Probe(NamedTuple):
    """One patched attribute: ``owner.attr`` reported as ``layer``/``name``."""

    layer: str
    name: str
    owner: object
    attr: str
    #: ``(args, result) -> int`` work units of one call (rows, bytes, tids)
    units: Callable | None = None
    #: wraps the original before timing (eager generators, pipe proxies)
    adapt: Callable | None = None
    #: remember each call's start per op id (cross-thread queue waits)
    by_op: bool = False
    #: keep every call's duration (for a median), not just the totals
    keep: bool = False


@dataclass
class Stat:
    """Folded spans of one name."""

    layer: str
    count: int = 0
    total_ns: int = 0
    self_ns: int = 0
    units: int = 0
    durations_ns: list = field(default_factory=list)
    #: op id -> start of that op's first span of this name
    start_by_op: dict = field(default_factory=dict)

    def add(self, other: "Stat") -> None:
        self.count += other.count
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.units += other.units
        self.durations_ns.extend(other.durations_ns)
        self.start_by_op.update(other.start_by_op)


class Summary(dict):
    """``name -> Stat`` plus how many spans ran under each scope name."""

    def __init__(self):
        super().__init__()
        #: scope name -> {name: spans with that scope among their ancestors}
        self.under: dict[str, dict[str, int]] = {}

    def stat(self, name: str) -> Stat:
        return self.get(name) or Stat(layer="")

    def merge(self, other: "Summary") -> None:
        for name, stat in other.items():
            mine = self.get(name)
            if mine is None:
                mine = self[name] = Stat(layer=stat.layer)
            mine.add(stat)
        for scope, counts in other.under.items():
            mine = self.under.setdefault(scope, {})
            for name, count in counts.items():
                mine[name] = mine.get(name, 0) + count

    def attributed_ns(self) -> int:
        """Self time of every span except the benchmark's own op spans."""
        return sum(s.self_ns for s in self.values() if s.layer != BENCH_LAYER)

    def op_ns(self) -> int:
        return sum(s.total_ns for s in self.values() if s.layer == BENCH_LAYER)


class _ThreadState:
    __slots__ = ("spans", "stack", "op")

    def __init__(self):
        self.spans: list = []   # (idx, start, end, parent, op, units) | None
        self.stack: list = []   # open span slots, innermost last
        self.op = None


class Tracer:
    """Installs probes, records spans, folds them per name."""

    def __init__(self, clock=time.perf_counter_ns, scopes=()):
        self._clock = clock
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._probes: list[Probe] = []        # span idx -> probe
        self._index: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._scopes = frozenset(scopes)
        #: id(object) -> op id, for spans that start on a worker thread
        self.links: dict[int, object] = {}

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patched)

    def install(self, probes) -> None:
        if self._patched:
            raise RuntimeError("probes already installed")
        for probe in probes:
            raw = vars(probe.owner)[probe.attr]
            wrapper = self._wrapper(self._register(probe), _callable_of(raw), probe)
            if isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            self._patched.append((probe.owner, probe.attr, raw))
            setattr(probe.owner, probe.attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _register(self, probe: Probe) -> int:
        idx = self._index.get(probe.name)
        if idx is None:
            idx = self._index[probe.name] = len(self._probes)
            self._probes.append(probe)
        return idx

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = self._tls.state = _ThreadState()
        with self._lock:
            self._states.append(state)
        return state

    def _wrapper(self, idx: int, orig, probe: Probe):
        if probe.adapt is not None:
            orig = probe.adapt(orig)
        tls, clock, new_state = self._tls, self._clock, self._state
        units, links = probe.units, self.links
        linked = probe.by_op

        def wrapper(*args, **kwargs):
            try:
                state = tls.state
            except AttributeError:
                state = new_state()
            spans, stack = state.spans, state.stack
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            op = state.op
            if linked and op is None and len(args) > 1:
                op = links.get(id(args[1]))
            start = clock()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[slot] = (idx, start, end, parent, op, 0)
                raise
            end = clock()
            stack.pop()
            spans[slot] = (
                idx, start, end, parent, op,
                units(args, result) if units is not None else 0,
            )
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    @contextmanager
    def op(self, op_id, kind: str):
        """Root span of one benchmark op on the calling thread."""
        idx = self._index.get(f"op.{kind}")
        if idx is None:
            idx = self._register(Probe(BENCH_LAYER, f"op.{kind}", None, ""))
        try:
            state = self._tls.state
        except AttributeError:
            state = self._state()
        slot = len(state.spans)
        state.spans.append(None)
        parent = state.stack[-1] if state.stack else -1
        state.stack.append(slot)
        state.op = op_id
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            state.stack.pop()
            state.op = None
            state.spans[slot] = (idx, start, end, parent, op_id, 0)

    # ------------------------------------------------------------------
    # folding
    # ------------------------------------------------------------------
    def fold(self) -> Summary:
        """Fold and forget every completed span (call between rounds,
        when no probed call is in flight)."""
        summary = Summary()
        with self._lock:
            states = list(self._states)
        for state in states:
            spans, state.spans = state.spans, []
            summary.merge(fold_spans(spans, self._probes, self._scopes))
        self.links.clear()
        return summary


def fold_spans(spans, probes, scopes=frozenset()) -> Summary:
    """Per-name stats of one thread's spans.

    ``spans[i]`` is ``(probe idx, start, end, parent slot, op, units)``;
    a parent's slot always precedes its children's (slots are taken at
    entry), which is what lets one forward pass resolve scope ancestry.
    Open slots (``None`` — a call still in flight) are skipped.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    summary = Summary()
    scope_of: list = [None] * len(spans)
    for slot, span in enumerate(spans):
        if span is None:
            continue
        idx, start, end, parent, op, units = span
        probe = probes[idx]
        stat = summary.get(probe.name)
        if stat is None:
            stat = summary[probe.name] = Stat(layer=probe.layer)
        duration = end - start
        stat.count += 1
        stat.total_ns += duration
        stat.self_ns += duration - covered[slot]
        stat.units += units
        if probe.keep:
            stat.durations_ns.append(duration)
        if probe.by_op and op is not None:
            stat.start_by_op.setdefault(op, start)
        if parent >= 0 and spans[parent] is not None:
            parent_name = probes[spans[parent][0]].name
            scope = parent_name if parent_name in scopes else scope_of[parent]
            scope_of[slot] = scope
            if scope is not None:
                counts = summary.under.setdefault(scope, {})
                counts[probe.name] = counts.get(probe.name, 0) + 1
    return summary


def _callable_of(raw):
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


# ----------------------------------------------------------------------
# adapters
# ----------------------------------------------------------------------
def eager(generator_function):
    """Run a generator function to completion inside its span.

    A lazy generator would do its work in the *caller's* span; every
    probed generator reads immutable geometry, so draining it early
    changes nothing the caller can see.
    """

    def drained(*args, **kwargs):
        return iter(list(generator_function(*args, **kwargs)))

    return drained


class Pipe:
    """Stand-in for a ``multiprocessing`` connection whose three blocking
    calls are themselves probed: what a worker makes the front end wait
    becomes a child span of the frame codec, not codec self time."""

    def __init__(self, conn):
        self._conn = conn

    def send_bytes(self, data):
        return self._conn.send_bytes(data)

    def recv_bytes(self):
        return self._conn.recv_bytes()

    def poll(self, timeout=0.0):
        return self._conn.poll(timeout)


def through_pipe(wire_function):
    """Hand ``send_msg`` / ``recv_msg`` a :class:`Pipe` instead of the
    raw connection (their first argument)."""

    def piped(conn, *args, **kwargs):
        return wire_function(Pipe(conn), *args, **kwargs)

    return piped


# ----------------------------------------------------------------------
# the declared call surface
# ----------------------------------------------------------------------
#: Spans whose descendants are counted per name (``Summary.under``).
SCOPES = ("CubeCompactor.compact_once",)


def _decoded_tids(_args, by_bid) -> int:
    return sum(len(tids) for tids in by_bid.values())


def _rows(_args, rows) -> int:
    return len(rows)


def _absorbed(_args, report) -> int:
    return report.absorbed


def _inserted(args, _result) -> int:
    return len(args[1]) if hasattr(args[1], "__len__") else 0


def _sent_bytes(args, _result) -> int:
    return len(args[1])


def declared(stack) -> list[Probe]:
    """Every callable the traced pass wraps, by layer.

    ``stack`` is the adapter module — the only importer of the system —
    so renaming an entry point is a change to ``stack.py`` and this list,
    nothing else.
    """
    s = stack
    probes = [
        Probe("storage.device", "BlockDevice.read", s.BlockDevice, "read"),
        Probe("storage.device", "BlockDevice.write", s.BlockDevice, "write"),
        Probe("storage.buffer", "BufferPool.get", s.BufferPool, "get"),
        Probe("storage.blobs", "BlobStore.get", s.BlobStore, "get"),
        Probe("core.chains", "ChainStore.get", s.ChainStore, "get"),
        Probe("core.blocks", "BlockGrid.neighbors", s.BlockGrid, "neighbors",
              adapt=eager),
        Probe("core.blocks", "BlockGrid.box", s.BlockGrid, "box"),
        Probe("core.blocks", "BlockGrid.sub_box", s.BlockGrid, "sub_box"),
        Probe("core.blocks", "BlockGrid.bid_of", s.BlockGrid, "bid_of"),
        Probe("core.blocks", "BlockGrid.coords_of", s.BlockGrid, "coords_of"),
        Probe("core.pseudo", "PseudoBlockMap.pid_of_bid", s.PseudoBlockMap,
              "pid_of_bid"),
        Probe("core.cuboid", "RankingCuboid.get_pseudo_block", s.RankingCuboid,
              "get_pseudo_block"),
        Probe("core.cuboid", "RankingCuboid.decode_pseudo_block",
              s.RankingCuboid, "decode_pseudo_block", units=_decoded_tids),
        Probe("core.base_table", "BaseBlockTable.get_base_block",
              s.BaseBlockTable, "get_base_block"),
        Probe("core.cube", "RankingCube.build", s.RankingCube, "build"),
        Probe("core.cube", "RankingCube.snapshot", s.RankingCube, "snapshot"),
        Probe("core.cube", "RankingCube.refresh_delta", s.RankingCube,
              "refresh_delta"),
        Probe("core.cube", "CubeSnapshot.covering_cuboids", s.CubeSnapshot,
              "covering_cuboids"),
        Probe("core.cube", "CubeSnapshot.delta_matches", s.CubeSnapshot,
              "delta_matches"),
        Probe("core.executor", "RankingCubeExecutor.execute",
              s.RankingCubeExecutor, "execute", by_op=True),
        Probe("core.executor", "RankingCubeExecutor.open_search",
              s.RankingCubeExecutor, "open_search"),
        Probe("core.executor", "ProgressiveSearch.step", s.ProgressiveSearch,
              "step"),
        Probe("core.anyk", "AnyKCursor.next_batch", s.AnyKCursor, "next_batch",
              units=_rows),
        Probe("core.reverse", "reverse_topk", s.reverse_module, "reverse_topk"),
        Probe("core.compaction", "CubeCompactor.compact_once", s.CubeCompactor,
              "compact_once", units=_absorbed, keep=True),
        Probe("serve.cache", "PseudoBlockCache.get", s.PseudoBlockCache, "get"),
        Probe("serve.cache", "PseudoBlockCache.put", s.PseudoBlockCache, "put"),
        Probe("serve.cache", "BoundMemo.group", s.BoundMemo, "group"),
        Probe("serve.cache", "BoundMemo.lookup", s.BoundMemo, "lookup"),
        Probe("serve.cache", "BoundMemo.store", s.BoundMemo, "store"),
        Probe("serve.service", "QueryService.submit", s.QueryService, "submit",
              by_op=True),
        Probe("serve.sharded", "ShardedQueryService.submit",
              s.ShardedQueryService, "submit"),
        Probe("serve.wire", "wire.send_msg", s.wire, "send_msg",
              adapt=through_pipe),
        Probe("serve.wire", "wire.recv_msg", s.wire, "recv_msg",
              adapt=through_pipe),
        Probe("serve.wire", "pipe.send", Pipe, "send_bytes", units=_sent_bytes),
        Probe("serve.procpool", "pipe.wait", Pipe, "recv_bytes", units=_rows),
        Probe("serve.procpool", "pipe.poll", Pipe, "poll"),
        Probe("serve.procpool", "ProcessShardPool.__init__", s.ProcessShardPool,
              "__init__"),
        Probe("ingest.wal", "WriteAheadLog.append_durable", s.WriteAheadLog,
              "append_durable"),
        Probe("ingest.stream", "StreamIngestor.append", s.StreamIngestor,
              "append"),
        Probe("ingest.stream", "StreamIngestor.recover", s.StreamIngestor,
              "recover"),
        Probe("relational.table", "Table.insert_rows", s.Table, "insert_rows",
              units=_inserted),
        Probe("persist", "Workspace.save", s.Workspace, "save"),
        Probe("persist", "ShardedWorkspace.save", s.ShardedWorkspace, "save"),
        Probe("shard.builder", "build_sharded", s.shard_builder,
              "build_sharded"),
    ]
    for function_class in s.RANKING_FUNCTION_CLASSES:
        for attr, what in (("min_over_box", "bound"), ("score", "score")):
            if attr in vars(function_class):
                probes.append(
                    Probe("ranking.functions", f"ranking.{what}",
                          function_class, attr)
                )
    return probes
