"""Crash-consistency schedules and the fault-matrix runner.

A *schedule* is one reproducible storm: build a ranking cube on a
:class:`~repro.storage.faults.FaultyBlockDevice` under a seeded transient
fault plan, run top-k queries through the retrying storage stack, then
simulate a crash — tear a few in-flight page writes, discard every
unflushed buffer-pool frame — "reopen" the surviving device image, and
check the two guarantees this repository makes about failure:

1. **No silent wrong answers.**  Every query, before and after the crash,
   either returns exactly the pristine-device top-k or raises a typed
   :class:`~repro.storage.device.StorageError` subclass (usually
   :class:`~repro.core.executor.QueryAbortedError` with partial results
   attached).
2. **Detectable damage only.**  After the crash, every device page is
   either readable or *detectably* invalid — scrubbing finds exactly the
   pages the crash tore, never an undetected mutation.

``run_fault_matrix`` sweeps a fixed seed tuple so CI stays deterministic
and fast (``python -m repro.bench fault-matrix``); the crash-consistency
test suite drives ``run_schedule`` across 100 seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..core import RankingCube, RankingCubeExecutor
from ..core.compaction import COMPACTION_FAULT_POINTS, CubeCompactor
from ..ranking import LinearFunction
from ..relational import (
    Database,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from ..storage import (
    BlockDevice,
    FaultyBlockDevice,
    RetryPolicy,
    StorageError,
    transient_fault_plan,
)

#: Fixed seeds for the CI fault matrix (`python -m repro.bench fault-matrix`).
DEFAULT_MATRIX_SEEDS = (11, 23, 47)

_CARDS = (3, 4)


class HarnessError(AssertionError):
    """A crash-consistency guarantee was violated (this is the bug alarm)."""


@dataclass
class ScheduleOutcome:
    """What one seeded schedule observed.

    ``silent_wrong`` and ``undetected_damage`` must be zero for the
    schedule to uphold the consistency guarantees; everything else is
    descriptive (how hard the storm hit, how often retries saved a query).
    """

    seed: int
    built: bool = False
    build_error: str | None = None
    queries_ok: int = 0
    queries_aborted: int = 0
    silent_wrong: int = 0
    post_crash_ok: int = 0
    post_crash_aborted: int = 0
    undetected_damage: int = 0
    torn_pages: int = 0
    corrupt_pages_detected: int = 0
    dirty_pages_lost: int = 0
    faults_injected: int = 0
    retried_reads: int = 0
    retried_writes: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.silent_wrong == 0 and self.undetected_damage == 0


@dataclass
class FaultMatrixResult:
    """Aggregate of :func:`run_schedule` over a seed sweep."""

    outcomes: list[ScheduleOutcome]

    @property
    def consistent(self) -> bool:
        return all(outcome.consistent for outcome in self.outcomes)

    @property
    def total_faults(self) -> int:
        return sum(outcome.faults_injected for outcome in self.outcomes)

    def format_table(self) -> str:
        header = (
            f"fault-matrix over {len(self.outcomes)} schedule(s)  "
            f"[consistent={'yes' if self.consistent else 'NO'}]"
        )
        columns = (
            "seed built ok abort wrong post_ok post_abort torn detected "
            "lost faults rd_retry wr_retry"
        ).split()
        lines = [header, "  ".join(f"{c:>10}" for c in columns)]
        for o in self.outcomes:
            row = [
                o.seed,
                "yes" if o.built else "no",
                o.queries_ok,
                o.queries_aborted,
                o.silent_wrong,
                o.post_crash_ok,
                o.post_crash_aborted,
                o.torn_pages,
                o.corrupt_pages_detected,
                o.dirty_pages_lost,
                o.faults_injected,
                o.retried_reads,
                o.retried_writes,
            ]
            lines.append("  ".join(f"{str(v):>10}" for v in row))
        return "\n".join(lines)


# ----------------------------------------------------------------------
# schedule ingredients
# ----------------------------------------------------------------------
def _schema() -> Schema:
    return Schema.of(
        [selection_attr("a1", _CARDS[0]), selection_attr("a2", _CARDS[1])]
        + [ranking_attr("n1"), ranking_attr("n2")]
    )


def _rows(rng: random.Random, count: int) -> list[tuple]:
    return [
        (rng.randrange(_CARDS[0]), rng.randrange(_CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]


def _queries(rng: random.Random, count: int) -> list[TopKQuery]:
    queries = []
    for _ in range(count):
        selections = {}
        if rng.random() < 0.8:
            selections["a1"] = rng.randrange(_CARDS[0])
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(_CARDS[1])
        fn = LinearFunction(
            ["n1", "n2"], [0.1 + rng.random(), 0.1 + rng.random()]
        )
        queries.append(TopKQuery(rng.randint(1, 8), selections, fn))
    return queries


def brute_force_scores(
    schema: Schema, rows: list[tuple], query: TopKQuery
) -> list[float]:
    """Reference top-k scores, computed with no storage at all."""
    scored = sorted(
        query.score_row(schema, row)
        for row in rows
        if query.matches(schema, row)
    )
    return scored[: query.k]


def _scores_match(result_rows, expected: list[float], tol: float = 1e-9) -> bool:
    got = [row.score for row in result_rows]
    if len(got) != len(expected):
        return False
    return all(abs(g - e) <= tol for g, e in zip(got, expected))


# ----------------------------------------------------------------------
# one schedule
# ----------------------------------------------------------------------
def run_schedule(
    seed: int,
    *,
    num_rows: int = 80,
    num_queries: int = 4,
    crash_torn_pages: int = 3,
    page_size: int = 512,
    retry_attempts: int = 6,
) -> ScheduleOutcome:
    """Run one seeded build/query/crash/reopen schedule.

    Raises :class:`HarnessError` if a consistency guarantee is violated —
    a query result that differs from the pristine reference without a
    typed error, a non-``StorageError`` escaping the stack, or post-crash
    damage the scrub cannot detect.
    """
    outcome = ScheduleOutcome(seed=seed)
    rng = random.Random(seed)
    schema = _schema()
    rows = _rows(rng, num_rows)
    queries = _queries(rng, num_queries)
    references = [brute_force_scores(schema, rows, q) for q in queries]

    injector = transient_fault_plan(rng.randrange(2**31))
    device = FaultyBlockDevice(BlockDevice(page_size=page_size), injector)
    db = Database(
        buffer_capacity=512,
        device=device,
        retry_policy=RetryPolicy(max_attempts=retry_attempts),
    )

    # --- build under fire -------------------------------------------------
    try:
        table = db.load_table("R", schema, rows)
        cube = RankingCube.build(table, block_size=rng.choice([4, 8, 16]))
        outcome.built = True
    except StorageError as exc:
        # a typed abort is an acceptable (if unlucky) outcome; anything
        # else would propagate out of this function as the bug it is
        outcome.build_error = f"{type(exc).__name__}: {exc}"
        outcome.faults_injected = injector.stats.total
        return outcome

    executor = RankingCubeExecutor(cube, table)

    # --- queries under fire ----------------------------------------------
    for query, expected in zip(queries, references):
        try:
            db.cold_cache()  # force every page access to face the device
            result = executor.execute(query)
        except StorageError:
            # QueryAbortedError (with partial rows) or a retry-exhausted /
            # corruption escalation from the cold_cache flush: all typed
            outcome.queries_aborted += 1
            continue
        if _scores_match(result.rows, expected):
            outcome.queries_ok += 1
        else:
            outcome.silent_wrong += 1
            outcome.notes.append(f"pre-crash silent wrong answer for {query}")

    # --- checkpoint, then crash with writes in flight ---------------------
    injector.disarm()
    db.pool.flush()  # checkpoint: the durable state queries will reopen
    # writes in flight at the moment of the crash: a few pages get torn
    # (partial image, stale checksum), a few buffered updates are lost
    # outright (dirtied in the pool, never flushed)
    tearable = list(range(device.num_pages))
    rng.shuffle(tearable)
    torn: list[int] = []
    for page_id in tearable[:crash_torn_pages]:
        garbage = bytes(rng.randrange(256) for _ in range(rng.randint(1, page_size)))
        device.patch(page_id, garbage, update_checksum=False)
        torn.append(page_id)
    outcome.torn_pages = len(torn)
    for page_id in tearable[crash_torn_pages : crash_torn_pages + 2]:
        db.pool.put(page_id, b"\x7fLOST" + bytes(page_size - 5))
    outcome.dirty_pages_lost = len(db.pool.dirty_pages)
    db.pool.crash()

    # --- reopen and verify ------------------------------------------------
    scrub = device.scrub()
    outcome.corrupt_pages_detected = len(scrub.corrupt_page_ids) + len(
        scrub.unreadable_page_ids
    )
    undetected = [
        page_id
        for page_id in torn
        if page_id not in scrub.corrupt_page_ids
        and page_id not in scrub.unreadable_page_ids
        and not _patch_was_noop(device, page_id)
    ]
    outcome.undetected_damage = len(undetected)
    if undetected:
        outcome.notes.append(f"torn pages not detected by scrub: {undetected}")
    unexpected = [
        page_id
        for page_id in scrub.corrupt_page_ids + scrub.unreadable_page_ids
        if page_id not in torn
    ]
    if unexpected:
        # scrubbing flagged a page the crash did not tear: the transient
        # fault plan leaked persistent damage, which would be a retry bug
        outcome.undetected_damage += len(unexpected)
        outcome.notes.append(f"unexpected corrupt pages: {unexpected}")

    for query, expected in zip(queries, references):
        try:
            result = executor.execute(query)
        except StorageError:
            outcome.post_crash_aborted += 1
            continue
        if _scores_match(result.rows, expected):
            outcome.post_crash_ok += 1
        else:
            outcome.silent_wrong += 1
            outcome.notes.append(f"post-crash silent wrong answer for {query}")

    outcome.faults_injected = injector.stats.total
    outcome.retried_reads = device.stats.retried_reads
    outcome.retried_writes = device.stats.retried_writes

    if not outcome.consistent:
        raise HarnessError(
            f"schedule seed={seed} violated crash consistency: "
            f"silent_wrong={outcome.silent_wrong}, "
            f"undetected_damage={outcome.undetected_damage}, "
            f"notes={outcome.notes}"
        )
    return outcome


def _patch_was_noop(device: FaultyBlockDevice, page_id: int) -> bool:
    """True when a torn patch happened to leave the page image intact."""
    try:
        device.inner.read(page_id)
        return True
    except StorageError:
        return False


# ----------------------------------------------------------------------
# compaction crash schedules
# ----------------------------------------------------------------------
class SimulatedKill(BaseException):
    """Raised by the fault hook to model the compactor dying mid-run.

    Deliberately *not* an ``Exception`` subclass: a kill is not an error
    the compactor may swallow, and deriving from ``BaseException`` proves
    no ``except Exception`` in the compaction path can absorb it.
    """


@dataclass
class CompactionCrashOutcome:
    """What one compaction-kill schedule observed.

    ``consistent`` requires every post-crash query to equal the full
    brute-force oracle (pre- and post-merge states both satisfy this —
    the delta covers whatever the materialization lacks) *and* the cube
    to be wholly in one generation (``state_violation == 0``).
    """

    seed: int
    fault_point: str
    killed: bool = False          #: the hook fired and the run died there
    swapped: bool = False         #: cube answers from the post-merge state
    reloaded: bool = False        #: verified via a save/load round-trip
    delta_remaining: int = 0
    queries_ok: int = 0
    silent_wrong: int = 0
    state_violation: int = 0      #: mixed-generation evidence (must be 0)
    notes: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.silent_wrong == 0 and self.state_violation == 0


def run_compaction_schedule(
    seed: int,
    *,
    fault_point: str,
    num_rows: int = 72,
    num_delta: int = 28,
    num_queries: int = 4,
    page_size: int = 1024,
    buffer_capacity: int = 256,
    snapshot_path=None,
) -> CompactionCrashOutcome:
    """Kill a compaction at ``fault_point`` and verify crash consistency.

    Builds a cube, appends ``num_delta`` tuples through ``refresh_delta``,
    checkpoints, then runs :meth:`CubeCompactor.compact_once` with a fault
    hook that raises :class:`SimulatedKill` at the named point.  After the
    kill the buffer pool crashes (unflushed frames drop), and every query
    must still equal the brute-force oracle over *all* rows: before the
    swap the old materialization plus the intact delta answers; after it
    the new materialization plus the residual delta does.  Partial states
    — some cuboids swapped, a half-merged delta — would miss or duplicate
    tuples and fail the oracle comparison.

    ``snapshot_path`` (a writable file path) additionally round-trips the
    survivor through ``Workspace.save`` / ``Workspace.load`` and verifies
    the *reloaded* cube, modeling a process restart from disk.
    """
    if fault_point not in COMPACTION_FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {fault_point!r}; "
            f"known: {COMPACTION_FAULT_POINTS}"
        )
    outcome = CompactionCrashOutcome(seed=seed, fault_point=fault_point)
    rng = random.Random(seed)
    schema = _schema()
    rows = _rows(rng, num_rows)
    delta_rows = _rows(rng, num_delta)
    queries = _queries(rng, num_queries)
    all_rows = rows + delta_rows
    references = [brute_force_scores(schema, all_rows, q) for q in queries]

    db = Database(
        page_size=page_size,
        buffer_capacity=buffer_capacity,
        device=BlockDevice(page_size=page_size),
    )
    table = db.load_table("R", schema, rows)
    cube = RankingCube.build(table, block_size=rng.choice([4, 8]))
    table.insert_rows(delta_rows)
    cube.refresh_delta(table)
    db.pool.flush()  # checkpoint: pre-merge state is durable

    executor = RankingCubeExecutor(cube, table)
    for query, expected in zip(queries, references):
        if not _scores_match(executor.execute(query).rows, expected):
            raise HarnessError(
                f"seed {seed}: pre-crash answers already wrong for {query}"
            )

    def hook(point: str) -> None:
        if point == fault_point:
            raise SimulatedKill(point)

    compactor = CubeCompactor(cube, db.pool, fault_hook=hook)
    try:
        compactor.compact_once()
    except SimulatedKill:
        outcome.killed = True
    if not outcome.killed:
        raise HarnessError(
            f"seed {seed}: fault point {fault_point!r} never fired "
            f"(compaction was a no-op?)"
        )

    # the crash: every unflushed buffer frame is gone
    db.pool.crash()

    # whole-generation check: epochs move together or not at all
    epochs = {c.epoch for c in cube.cuboids.values()}
    if len(epochs) != 1:
        outcome.state_violation += 1
        outcome.notes.append(f"mixed cuboid generations: {sorted(epochs)}")
    outcome.swapped = epochs == {1}
    expect_swapped = fault_point in ("swapped", "notified")
    if outcome.swapped != expect_swapped:
        outcome.state_violation += 1
        outcome.notes.append(
            f"fault at {fault_point!r} left swapped={outcome.swapped}"
        )

    verify_cube, verify_table, verify_db = cube, table, db
    if snapshot_path is not None:
        from ..persist import Workspace

        Workspace(db=db, cubes={"R": cube}).save(snapshot_path)
        loaded = Workspace.load(snapshot_path)
        verify_cube = loaded.cube("R")
        verify_table = loaded.db.table("R")
        verify_db = loaded.db
        outcome.reloaded = True

    outcome.delta_remaining = verify_cube.delta_size
    verify_executor = RankingCubeExecutor(verify_cube, verify_table)
    for query, expected in zip(queries, references):
        verify_db.cold_cache()  # answers must come from the device image
        result = verify_executor.execute(query)
        if _scores_match(result.rows, expected):
            outcome.queries_ok += 1
        else:
            outcome.silent_wrong += 1
            outcome.notes.append(
                f"post-crash answer diverged from oracle for {query}"
            )

    if not outcome.consistent:
        raise HarnessError(
            f"compaction kill at {fault_point!r} seed={seed} violated "
            f"consistency: silent_wrong={outcome.silent_wrong}, "
            f"state_violation={outcome.state_violation}, "
            f"notes={outcome.notes}"
        )
    return outcome


# ----------------------------------------------------------------------
# ingestion crash schedules
# ----------------------------------------------------------------------
@dataclass
class IngestCrashOutcome:
    """What one ingestion-kill schedule observed.

    ``consistent`` requires recovery to reconstruct *exactly* the durable
    prefix — every acknowledged batch present, the killed unacknowledged
    batch absent, every row byte-identical to the synchronous oracle, and
    every post-recovery query equal to brute force over that prefix.
    """

    seed: int
    fault_point: str
    killed: bool = False           #: the hook fired and append died there
    batches_total: int = 0
    batches_durable: int = 0       #: batches the durable prefix must hold
    rows_durable: int = 0          #: total rows after recovery (incl. base)
    rows_lost: int = 0             #: appended rows the crash legitimately lost
    torn_tail_bytes: int = 0       #: partial-record bytes left in the WAL
    replayed_rows: int = 0         #: rows recovery replayed from the WAL
    recovery_wall_s: float = 0.0
    queries_ok: int = 0
    silent_wrong: int = 0
    state_mismatch: int = 0        #: row-level divergence from the oracle
    notes: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.silent_wrong == 0 and self.state_mismatch == 0


def run_ingest_schedule(
    seed: int,
    *,
    fault_point: str,
    directory=None,
    num_base: int = 48,
    num_batches: int = 6,
    num_queries: int = 4,
    compact_threshold: int = 12,
) -> IngestCrashOutcome:
    """Kill a streaming append at ``fault_point`` and verify recovery.

    Builds a workspace, snapshots it, then streams ``num_batches`` row
    batches through a :class:`~repro.ingest.StreamIngestor` whose fault
    hook raises :class:`SimulatedKill` at a seeded occurrence of the
    named point.  The crash semantics follow write-ahead ordering:

    * ``"wal-append"`` — the record reached the OS but was never fsynced,
      so the crash may lose it entirely or leave a torn tail; the harness
      truncates the WAL file accordingly and the batch is NOT durable.
    * ``"wal-fsync"`` / ``"delta-tier-flush"`` / ``"compaction-swap"`` —
      the record is on stable storage, so the batch IS durable and
      recovery must replay it even though the in-memory state died.

    Recovery (:meth:`StreamIngestor.recover`) must then equal the
    synchronous oracle that applied exactly the durable batches: same
    row count, same bytes per tid, same top-k answers, and a repaired
    (cleanly appendable) WAL — proven by one post-recovery append.
    Raises :class:`HarnessError` on any divergence.
    """
    import os
    import shutil
    import tempfile
    from pathlib import Path

    from ..ingest import INGEST_FAULT_POINTS, StreamIngestor
    from ..persist import Workspace

    if fault_point not in INGEST_FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {fault_point!r}; known: {INGEST_FAULT_POINTS}"
        )
    outcome = IngestCrashOutcome(seed=seed, fault_point=fault_point)
    rng = random.Random(seed)
    schema = _schema()
    base = _rows(rng, num_base)
    batches = [_rows(rng, rng.randint(2, 9)) for _ in range(num_batches)]
    queries = _queries(rng, num_queries)
    outcome.batches_total = num_batches

    own_dir = None
    if directory is None:
        own_dir = tempfile.mkdtemp(prefix="repro-ingest-kill-")
        directory = own_dir
    directory = Path(directory)
    snapshot_path = directory / f"ingest-{seed}.snapshot"
    wal_path = directory / f"ingest-{seed}.wal"
    for stale in (snapshot_path, wal_path):
        if stale.exists():
            stale.unlink()  # a rerun must not inherit the last crash's WAL

    try:
        db = Database(buffer_capacity=1024)
        table = db.load_table("R", schema, base)
        cube = RankingCube.build(table, block_size=rng.choice([4, 8]))
        workspace = Workspace(db=db, cubes={"R": cube})
        workspace.save(snapshot_path)

        # vary when the kill lands: the Nth firing of the point, so the
        # seed sweep covers first-batch, mid-stream, and compaction-time
        # deaths (compaction-swap fires rarely, so always take the first)
        per_batch = fault_point != "compaction-swap"
        occurrence = rng.randint(1, min(4, num_batches)) if per_batch else 1
        hits = 0

        def hook(point: str) -> None:
            nonlocal hits
            if point == fault_point:
                hits += 1
                if hits == occurrence:
                    raise SimulatedKill(point)

        ingestor = StreamIngestor(
            workspace,
            "R",
            wal_path,
            compact_threshold=compact_threshold,
            fault_hook=hook,
        )
        durable = list(base)
        appended = 0
        for batch in batches:
            pre_size = wal_path.stat().st_size if wal_path.exists() else 0
            try:
                ingestor.append(batch)
            except SimulatedKill:
                outcome.killed = True
                appended += len(batch)
                ingestor.close()
                if fault_point == "wal-append":
                    # never fsynced: chop the record back out, sometimes
                    # leaving a torn prefix for recovery to repair
                    full = wal_path.stat().st_size
                    if rng.random() < 0.5 or full - pre_size < 2:
                        cut = pre_size
                    else:
                        cut = pre_size + rng.randint(1, full - pre_size - 1)
                    with open(wal_path, "r+b") as fh:
                        fh.truncate(cut)
                        fh.flush()
                        os.fsync(fh.fileno())
                    outcome.torn_tail_bytes = cut - pre_size
                else:
                    durable.extend(batch)
                    outcome.batches_durable += 1
                break
            durable.extend(batch)
            outcome.batches_durable += 1
            appended += len(batch)
        else:
            ingestor.close()
        if not outcome.killed:
            raise HarnessError(
                f"seed {seed}: fault point {fault_point!r} never fired "
                f"(schedule too short to reach it?)"
            )
        outcome.rows_durable = len(durable)
        outcome.rows_lost = appended - (len(durable) - len(base))

        # the crash: the live workspace is simply gone; recovery starts
        # from the snapshot file plus whatever the WAL durably holds
        recovered = StreamIngestor.recover(snapshot_path, "R", wal_path)
        outcome.replayed_rows = recovered.recovered_rows
        outcome.recovery_wall_s = recovered.recovery_wall_s

        if recovered.table.num_rows != len(durable):
            outcome.state_mismatch += 1
            outcome.notes.append(
                f"recovered {recovered.table.num_rows} row(s), oracle holds "
                f"{len(durable)}"
            )
        else:
            diverged = [
                tid
                for tid, row in enumerate(durable)
                if recovered.table.fetch_by_tid(tid) != tuple(row)
            ]
            if diverged:
                outcome.state_mismatch += 1
                outcome.notes.append(f"rows diverge at tids {diverged[:5]}")
        if recovered.wal.torn_tail_bytes() != 0:
            outcome.state_mismatch += 1
            outcome.notes.append("recovery left a torn WAL tail in place")

        executor = RankingCubeExecutor(recovered.cube, recovered.table)
        for query in queries:
            expected = brute_force_scores(schema, durable, query)
            recovered.workspace.db.cold_cache()
            if _scores_match(executor.execute(query).rows, expected):
                outcome.queries_ok += 1
            else:
                outcome.silent_wrong += 1
                outcome.notes.append(
                    f"post-recovery answer diverged from oracle for {query}"
                )

        # liveness: the repaired WAL must take appends on a clean record
        # boundary, and they must be queryable immediately
        extra = _rows(rng, 3)
        recovered.append(extra)
        durable_plus = durable + extra
        probe = queries[0]
        expected = brute_force_scores(schema, durable_plus, probe)
        if not _scores_match(executor.execute(probe).rows, expected):
            outcome.silent_wrong += 1
            outcome.notes.append("post-recovery append not visible to queries")
        recovered.close()
    finally:
        if own_dir is not None:
            shutil.rmtree(own_dir, ignore_errors=True)

    if not outcome.consistent:
        raise HarnessError(
            f"ingest kill at {fault_point!r} seed={seed} violated "
            f"durability: state_mismatch={outcome.state_mismatch}, "
            f"silent_wrong={outcome.silent_wrong}, notes={outcome.notes}"
        )
    return outcome


# ----------------------------------------------------------------------
# sharded failover schedules
# ----------------------------------------------------------------------
#: Kill points the failover matrix drives — the same five front-end
#: fault seams in both serving modes (one loop, two transports).
FAILOVER_KILL_POINTS = (
    "scatter",        # shard death while opening per-shard searches
    "merge_round",    # shard death mid-merge, partial heap in hand
    "enum_next",      # shard death mid any-k enumeration
    "reverse_count",  # shard death during a reverse top-k count
    "promote",        # death *during the promotion itself*
)


@dataclass
class FailoverOutcome:
    """What one sharded failover schedule observed.

    ``consistent`` requires zero silent wrong answers: every query that
    returns must be byte-identical to the unsharded oracle, kill or no
    kill.  For the ``"promote"`` point the first query is *expected* to
    surface the :class:`SimulatedKill` (``kill_surfaced``) and the next
    query must heal.
    """

    seed: int
    mode: str
    kill_point: str
    victim: int = -1
    killed: bool = False
    kill_surfaced: bool = False    #: promote-kill escaped as it must
    failovers: int = 0             #: shard.replica.failovers for the victim
    promotions: int = 0            #: shard.replica.promotions (all shards)
    cold_respawns: int = 0         #: shard.pool.respawns (must stay 0)
    queries_ok: int = 0
    rows_compared: int = 0
    silent_wrong: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.silent_wrong == 0


class _PrimaryKill:
    """Fault hook that models one shard primary dying at a named point.

    Thread mode raises a typed :class:`StorageError` at the point for as
    long as the victim's original stack is still installed — a dead
    device stays dead until a replica replaces it.  Process mode SIGKILLs
    the victim's *current* worker process once (promoted replicas keep
    their spawn name, so the pool handle is the only reliable address).
    The ``"promote"`` point composes both: a primary death at scatter
    plus one :class:`SimulatedKill` at the promotion instant.
    """

    def __init__(self, kill_point: str, victim: int, mode: str):
        self.kill_point = kill_point
        self.victim = victim
        self.mode = mode
        self.armed = False
        self.fired = False
        self.promote_fired = False
        self.service = None
        self.original_shard = None

    def _primary_alive(self) -> bool:
        if self.mode == "process":
            return not self.fired
        return self.service.cube.shards[self.victim] is self.original_shard

    def kill_worker(self) -> None:
        """SIGKILL the victim's current worker (process mode only)."""
        self.fired = True
        handle = self.service._transport._handles.get(self.victim)
        if handle is not None and handle.alive:
            handle.process.kill()
            handle.process.join(timeout=10)

    def __call__(self, point: str, shard_id: int) -> None:
        if not self.armed or shard_id != self.victim:
            return
        if point == "promote":
            if self.kill_point == "promote" and not self.promote_fired:
                self.promote_fired = True
                raise SimulatedKill(point)
            return
        trigger = "scatter" if self.kill_point == "promote" else self.kill_point
        if point != trigger or not self._primary_alive():
            return
        if self.mode == "process":
            self.kill_worker()
            # returning lets the in-flight request hit the dead pipe and
            # surface as WorkerDiedError, exactly like an external SIGKILL
            return
        self.fired = True
        raise StorageError(
            f"injected primary death at {point} (shard {shard_id})"
        )


def run_failover_schedule(
    seed: int,
    *,
    kill_point: str,
    mode: str = "thread",
    num_rows: int = 120,
    num_shards: int = 2,
    num_queries: int = 3,
) -> FailoverOutcome:
    """Kill one shard primary at ``kill_point`` and verify failover.

    Builds the same relation unsharded (the oracle) and sharded with
    ``replication_factor=2``, arms a :class:`_PrimaryKill`, then runs the
    workload.  Every answer the service returns must be byte-identical —
    ``(tid, score)`` for ``(tid, score)`` — to the oracle's, the victim's
    ``shard.replica.failovers`` counter must match the induced kills, and
    a promotion must have actually happened (no silent cold path).
    Raises :class:`HarnessError` on any violation.
    """
    from ..core.anyk import AnyKCursor
    from ..core.executor import ExecutorTrace
    from ..core.reverse import ReverseTopKQuery, simplex_grid_family
    from ..obs.metrics import MetricsRegistry
    from ..serve.sharded import ShardedQueryService
    from ..shard.builder import build_sharded
    from ..workloads.oracle import brute_force_reverse_topk

    if kill_point not in FAILOVER_KILL_POINTS:
        raise ValueError(
            f"unknown kill point {kill_point!r}; known: {FAILOVER_KILL_POINTS}"
        )
    outcome = FailoverOutcome(seed=seed, mode=mode, kill_point=kill_point)
    rng = random.Random(seed)
    schema = _schema()
    rows = _rows(rng, num_rows)
    queries = _queries(rng, num_queries)
    # reverse_count consults shards in id order and may stop early once
    # k predecessors are proven, so only shard 0 is guaranteed a look
    victim = 0 if kill_point == "reverse_count" else rng.randrange(num_shards)
    outcome.victim = victim

    # the unsharded oracle
    oracle_db = Database(buffer_capacity=4096)
    oracle_table = oracle_db.load_table("R", schema, rows)
    oracle_cube = RankingCube.build(oracle_table, block_size=8)
    oracle = RankingCubeExecutor(oracle_cube, oracle_table)

    sharded = build_sharded(
        schema, rows, num_shards, block_size=8, replication_factor=2
    )
    registry = MetricsRegistry()
    kill = _PrimaryKill(kill_point, victim, mode)
    service = ShardedQueryService(
        sharded,
        workers=2,
        mode=mode,
        registry=registry,
        fault_hook=kill,
        worker_timeout_s=30.0,
        # small step batches force multi-round gathers, so merge-time
        # kill points actually get reached in process mode too
        step_batch=2,
    )
    kill.service = service
    kill.original_shard = sharded.shards[victim]

    def check(got_pairs, expected_pairs, what: str) -> None:
        outcome.rows_compared += len(expected_pairs)
        if got_pairs == expected_pairs:
            outcome.queries_ok += 1
        else:
            outcome.silent_wrong += 1
            outcome.notes.append(f"{what}: {got_pairs!r} != {expected_pairs!r}")

    try:
        # for enum_next the kill arms only after a prefix has been pulled,
        # so the failover genuinely happens mid-enumeration
        kill.armed = kill_point != "enum_next"
        if kill_point == "enum_next":
            # deep enumeration: kill strikes mid-stream, the cursor must
            # fail over and keep emitting the exact oracle order
            enum_query = TopKQuery(4, {}, queries[0].ranking)
            depth = min(40, num_rows)
            oracle_cursor = AnyKCursor(oracle, enum_query, ExecutorTrace())
            expected = [
                (row.tid, round(row.score, 12))
                for row in oracle_cursor.next_batch(depth)
            ]
            cursor = service.open_search(enum_query)
            prefix = rng.randint(4, 12)
            got = [
                (row.tid, round(row.score, 12))
                for row in cursor.next_batch(prefix)
            ]
            kill.armed = True
            got += [
                (row.tid, round(row.score, 12))
                for row in cursor.next_batch(depth - len(got))
            ]
            cursor.close()
            check(got, expected, "any-k enumeration across the kill")
        elif kill_point == "reverse_count":
            best = max(
                range(len(rows)), key=lambda tid: (rows[tid][2] + rows[tid][3], tid)
            )
            reverse_query = ReverseTopKQuery(
                best, 6, {}, simplex_grid_family(["n1", "n2"], 3)
            )
            expected = brute_force_reverse_topk(schema, rows, reverse_query)
            got = service.submit_reverse(reverse_query).result()
            check(
                list(got.qualifying),
                list(expected),
                "reverse top-k across the kill",
            )
        elif kill_point == "promote":
            probe = queries[0]
            expected = [(r.tid, round(r.score, 12)) for r in oracle.execute(probe).rows]
            try:
                service.submit(probe).result()
                outcome.notes.append("promotion kill never surfaced")
                outcome.silent_wrong += 1
            except SimulatedKill:
                outcome.kill_surfaced = True
            # the retry must find the standby still on the bench and heal
            result = service.submit(probe).result()
            check(
                [(r.tid, round(r.score, 12)) for r in result.rows],
                expected,
                "first query after the promotion kill",
            )
        else:  # "scatter" / "merge_round"
            for index, query in enumerate(queries):
                expected = [
                    (r.tid, round(r.score, 12)) for r in oracle.execute(query).rows
                ]
                result = service.submit(query).result()
                check(
                    [(r.tid, round(r.score, 12)) for r in result.rows],
                    expected,
                    f"query {index} across the kill",
                )
        outcome.killed = kill.fired or kill.promote_fired

        # cooldown: with the primary promoted, the rest of the workload
        # must run clean (no residual dead state, no repeat failovers)
        for index, query in enumerate(queries[1:], start=1):
            expected = [
                (r.tid, round(r.score, 12)) for r in oracle.execute(query).rows
            ]
            result = service.submit(query).result()
            check(
                [(r.tid, round(r.score, 12)) for r in result.rows],
                expected,
                f"cooldown query {index}",
            )
    finally:
        service.close()

    outcome.failovers = int(
        registry.value("shard.replica.failovers", shard=str(victim))
    )
    outcome.promotions = int(registry.total("shard.replica.promotions"))
    outcome.cold_respawns = int(registry.total("shard.pool.respawns"))
    if not outcome.killed:
        raise HarnessError(
            f"seed {seed}: kill point {kill_point!r} never fired in {mode} mode"
        )
    if outcome.promotions != 1:
        raise HarnessError(
            f"seed {seed}: 1 induced kill at {kill_point!r} but "
            f"{outcome.promotions} replica promotion(s)"
        )
    if outcome.cold_respawns != 0:
        raise HarnessError(
            f"seed {seed}: kill at {kill_point!r} took the cold respawn "
            f"path ({outcome.cold_respawns}) despite a warm standby"
        )
    if kill_point == "promote":
        if not outcome.kill_surfaced:
            raise HarnessError(
                f"seed {seed}: promotion kill was swallowed somewhere"
            )
    elif mode == "thread" and outcome.failovers != 1:
        # in process mode a kill can heal below the query layer (the pool
        # warm-promotes on handle acquisition), so failovers may be 0 there
        raise HarnessError(
            f"seed {seed}: induced 1 kill at {kill_point!r} but "
            f"shard.replica.failovers[shard={victim}] is {outcome.failovers}"
        )
    if not outcome.consistent:
        raise HarnessError(
            f"failover kill at {kill_point!r} seed={seed} mode={mode} gave "
            f"silent wrong answers: {outcome.notes}"
        )
    return outcome


# ----------------------------------------------------------------------
# the matrix
# ----------------------------------------------------------------------
def run_fault_matrix(
    seeds: tuple[int, ...] = DEFAULT_MATRIX_SEEDS, **schedule_kwargs
) -> FaultMatrixResult:
    """Run :func:`run_schedule` for each seed and aggregate the outcomes."""
    return FaultMatrixResult(
        outcomes=[run_schedule(seed, **schedule_kwargs) for seed in seeds]
    )
