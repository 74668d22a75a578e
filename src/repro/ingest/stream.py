"""Durable streaming ingestion: WAL → delta store → compaction.

:class:`StreamIngestor` wraps one :class:`~repro.persist.Workspace` and
turns batch appends into a crash-safe pipeline:

1. **log** — the batch is framed into the write-ahead log and fsynced
   (:class:`~repro.ingest.wal.WriteAheadLog`) *before* anything else
   sees it; the caller is only acknowledged once the record is durable,
2. **apply** — rows land in the table heap and
   :meth:`RankingCube.refresh_delta` absorbs them into the in-memory
   delta store, immediately visible to query snapshots,
3. **compact** — once ``compact_threshold`` appended rows are pending
   (appended and not yet absorbed), the ingestor drains the delta
   through :class:`~repro.core.compaction.CubeCompactor`; the
   compactor's ``on_swap`` callback subtracts the rows it absorbed,
4. **checkpoint** — :meth:`StreamIngestor.checkpoint` compacts, saves a
   workspace snapshot, and truncates the WAL to records the snapshot
   does not cover — which is what bounds recovery time: replay work is
   proportional to rows appended since the last checkpoint, never to
   the table's lifetime.

Crash recovery (:meth:`StreamIngestor.recover`) loads the last snapshot,
replays the WAL suffix whose tids the snapshot does not already hold
(asserting tid contiguity), repairs any torn tail by rewriting the valid
prefix, and returns a ready ingestor whose state is bit-identical to a
synchronous oracle that applied exactly the durable batches — the
invariant the kill matrix (``tests/faults/test_ingest_crash.py``)
checks at ≥100 seeds per fault point.

:class:`ShardedStreamIngestor` is the same pipeline over a
:class:`~repro.shard.builder.ShardedCube`: one global WAL, per-shard
compactors, per-shard snapshot refresh through
:meth:`~repro.persist.ShardedWorkspace.save_shard` (so a compaction
epoch bump re-pins just that shard in the manifest), and a per-row
replay that routes each logged tuple to its shard and skips tids a
fresher per-shard snapshot already covers.
"""

from __future__ import annotations

import time
from pathlib import Path

from ..core.compaction import CubeCompactor
from ..persist import PersistError, ShardedWorkspace, Workspace
from ..relational.table import check_rows
from .wal import WalError, WalRecord, WriteAheadLog

#: Named instants where the ingestion kill matrix may kill a run, in
#: pipeline order.  ``wal-append`` fires with the record buffered but
#: not durable (the harness models a torn write by chopping the file
#: tail); ``wal-fsync`` fires with the record durable; the last two
#: fire after apply, so recovery must replay the batch from the log.
INGEST_FAULT_POINTS = (
    "wal-append",       # record buffered to the OS, not yet fsynced
    "wal-fsync",        # record durable on stable storage
    "delta-tier-flush", # batch applied to the table and the delta store
    "compaction-swap",  # compactor swapped the merged materialization in
)


class IngestError(Exception):
    """Raised on ingestor misuse or snapshot/WAL mismatch at recovery."""


class StreamIngestor:
    """Durable append pipeline for one unsharded workspace.

    Parameters
    ----------
    workspace:
        The workspace holding the table and its cube (same ``name``).
    name:
        Table/cube name inside the workspace.
    wal_path:
        The write-ahead log file.
    compact_threshold:
        Compact once at least this many appended rows are pending.
    fault_hook:
        Test seam forwarded to the WAL and (translated) the compactor —
        see :data:`INGEST_FAULT_POINTS`.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(
        self,
        workspace: Workspace,
        name: str,
        wal_path: str | Path,
        *,
        compact_threshold: int = 256,
        fault_hook=None,
        tracer=None,
        registry=None,
    ):
        self.workspace = workspace
        self.name = name
        self.table = workspace.db.table(name)
        self.cube = workspace.cube(name)
        self.compact_threshold = compact_threshold
        self.fault_hook = fault_hook
        self.registry = registry
        self.wal = WriteAheadLog(wal_path, fault_hook=fault_hook)
        #: rows appended (or replayed) and not yet absorbed by a compaction:
        #: the compaction trigger.  Not ``cube.delta_size``, which also
        #: counts out-of-grid residuals and a recovered snapshot's delta.
        self.pending_rows = 0
        self.compactor = CubeCompactor(
            self.cube,
            workspace.db.pool,
            min_delta=compact_threshold,
            tracer=tracer,
            fault_hook=self._compactor_fault,
            on_swap=self._absorbed,
        )
        self.snapshot_path: Path | None = None
        self.last_checkpoint_rows = self.table.num_rows
        self.recovered_rows = 0
        self.repaired_tail_bytes = 0

    # ------------------------------------------------------------------
    def _compactor_fault(self, point: str) -> None:
        # The matrix names the post-swap instant "compaction-swap"; the
        # compactor's finer-grained points stay available to its own
        # crash suite and are not re-exported here.
        if point == "swapped" and self.fault_hook is not None:
            self.fault_hook("compaction-swap")

    def _count(self, name: str, value: int = 1) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc(value)

    def _absorbed(self, rows: int) -> None:
        # the first compaction after a recovery also absorbs the
        # snapshot's own delta, which was never pending here
        self.pending_rows = max(0, self.pending_rows - rows)

    def _applied(self) -> None:
        if self.fault_hook is not None:
            self.fault_hook("delta-tier-flush")

    # ------------------------------------------------------------------
    def append(self, rows) -> int:
        """Durably log then apply one batch; returns rows appended.

        Write-ahead ordering: the batch is checked (``check_rows``), then
        the WAL record is fsynced before the table heap or delta store
        change, so an acknowledged batch survives any crash, an
        unacknowledged one is at worst a torn tail that recovery chops,
        and a rejected one never reaches the log.
        """
        rows = [tuple(row) for row in check_rows(self.table.schema, rows)]
        if not rows:
            return 0
        record = WalRecord(first_tid=self.table.num_rows, rows=tuple(rows))
        self.wal.append_durable(record)
        self._count("ingest.wal.records")
        self.table.insert_rows(rows)
        self.cube.refresh_delta(self.table)
        self.pending_rows += len(rows)
        self._applied()
        self._count("ingest.rows", len(rows))
        self._count("ingest.batches")
        if self.pending_rows >= self.compact_threshold:
            self.compact()
        return len(rows)

    def compact(self):
        """Drain the delta through the compactor; a swap subtracts the
        absorbed rows from :attr:`pending_rows`."""
        report = self.compactor.compact_once()
        if report.swapped:
            self._count("ingest.compactions")
        return report

    # ------------------------------------------------------------------
    def checkpoint(self, snapshot_path: str | Path | None = None) -> dict:
        """Compact, snapshot the workspace, truncate the WAL.

        After a checkpoint the WAL holds only records the snapshot does
        not cover (normally none), so recovery replay work is bounded
        by rows appended since this call.  Returns checkpoint stats.
        """
        path = Path(snapshot_path) if snapshot_path else self.snapshot_path
        if path is None:
            raise IngestError("checkpoint needs a snapshot path")
        self.snapshot_path = path
        self.compact()
        bytes_written = self.workspace.save(path)
        covered = self.table.num_rows
        keep = [r for r in self.wal.replay() if r.last_tid >= covered]
        wal_bytes = self.wal.rewrite(keep)
        self.last_checkpoint_rows = covered
        self._count("ingest.checkpoints")
        return {
            "rows": covered,
            "snapshot_bytes": bytes_written,
            "wal_bytes": wal_bytes,
            "wal_records": len(keep),
        }

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        snapshot_path: str | Path,
        name: str,
        wal_path: str | Path,
        **kwargs,
    ) -> "StreamIngestor":
        """Reload the last snapshot and replay the WAL suffix.

        Torn tails are chopped (the valid prefix is rewritten in place
        via ``atomic_replace``) so subsequent appends land on a clean
        record boundary.  Replayed records must be tid-contiguous with
        the snapshot; a gap means the WAL and snapshot are from
        different histories and raises :class:`IngestError`.
        """
        started = time.perf_counter()
        workspace = Workspace.load(snapshot_path)
        wal = WriteAheadLog(wal_path)
        records, _valid = wal.scan()
        torn = wal.torn_tail_bytes()
        if torn:
            wal.rewrite(records)
        ingestor = cls(workspace, name, wal_path, **kwargs)
        ingestor.snapshot_path = Path(snapshot_path)
        ingestor.repaired_tail_bytes = torn
        table = ingestor.table
        replayed = 0
        for record in records:
            if record.last_tid < table.num_rows:
                continue  # snapshot already covers the whole batch
            if record.first_tid > table.num_rows:
                raise IngestError(
                    f"WAL gap: snapshot holds {table.num_rows} rows, next "
                    f"record starts at tid {record.first_tid}"
                )
            suffix = record.rows[table.num_rows - record.first_tid :]
            table.insert_rows(suffix)
            ingestor.pending_rows += len(suffix)
            ingestor._applied()
            replayed += len(suffix)
        ingestor.cube.refresh_delta(table)
        ingestor.recovered_rows = replayed
        ingestor.last_checkpoint_rows = table.num_rows - replayed
        ingestor.recovery_wall_s = time.perf_counter() - started
        ingestor._count("ingest.recover.rows", replayed)
        return ingestor

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "StreamIngestor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedStreamIngestor:
    """The durable append pipeline over a sharded deployment.

    One global WAL logs every batch under global tids; application
    routes rows through the shard map exactly like
    :meth:`ShardedCube.append_rows`.  Compaction is per shard, and when
    the deployment has been checkpointed to a directory, each shard's
    epoch bump is re-persisted through
    :meth:`~repro.persist.ShardedWorkspace.save_shard` — only that
    shard's snapshot plus the manifest are rewritten, both via
    ``atomic_replace``.

    Recovery is per-row: a shard refreshed by ``save_shard`` after the
    last full checkpoint already holds tids the other shards' snapshots
    lack, so replay routes every logged row to its shard and skips tids
    that shard already owns.
    """

    def __init__(
        self,
        cube,
        wal_path: str | Path,
        *,
        directory: str | Path | None = None,
        compact_threshold: int = 256,
        fault_hook=None,
        registry=None,
    ):
        self.cube = cube  # ShardedCube
        self.directory = Path(directory) if directory else None
        self.compact_threshold = compact_threshold
        self.fault_hook = fault_hook
        self.registry = registry
        self.wal = WriteAheadLog(wal_path, fault_hook=fault_hook)
        self._workspace = ShardedWorkspace(cube=cube)
        self.last_checkpoint_rows = cube.num_rows
        self.recovered_rows = 0
        self.repaired_tail_bytes = 0

    def _count(self, name: str, value: int = 1, **labels) -> None:
        if self.registry is not None:
            self.registry.counter(name, **labels).inc(value)

    # ------------------------------------------------------------------
    def append(self, rows) -> int:
        """Check, durably log, then route one batch across the shards."""
        rows = [tuple(row) for row in check_rows(self.cube.schema, rows)]
        if not rows:
            return 0
        record = WalRecord(first_tid=self.cube.num_rows, rows=tuple(rows))
        self.wal.append_durable(record)
        self._count("ingest.wal.records")
        self.cube.append_rows(rows)
        self._applied()
        self._count("ingest.rows", len(rows))
        for shard in self.cube.shards:
            if (
                shard.cube is not None
                and shard.cube.delta_size >= self.compact_threshold
            ):
                self.compact_shard(shard.shard_id)
        return len(rows)

    def compact_shard(self, shard_id: int):
        """Compact one shard; re-pin its snapshot if checkpointed.

        The compactor's swap bumps the shard's cuboid epochs; when the
        deployment has a manifest on disk the new generation is
        persisted immediately through ``save_shard`` so a reload serves
        the compacted materialization instead of replaying the delta.
        """
        shard = self.cube.shards[shard_id]
        if shard.cube is None:
            return None
        report = self._shard_compactor(shard).compact_once()
        if report.swapped:
            self._count("ingest.compactions", shard=shard_id)
            if self.directory is not None:
                self._workspace.save_shard(self.directory, shard_id)
        return report

    _compactor_fault = StreamIngestor._compactor_fault
    _applied = StreamIngestor._applied

    def _shard_compactor(self, shard) -> CubeCompactor:
        return CubeCompactor(
            shard.cube, shard.db.pool, min_delta=1,
            fault_hook=self._compactor_fault,
        )

    # ------------------------------------------------------------------
    def checkpoint(self, directory: str | Path | None = None) -> dict:
        """Compact every shard, save all snapshots, truncate the WAL."""
        target = Path(directory) if directory else self.directory
        if target is None:
            raise IngestError("checkpoint needs a snapshot directory")
        self.directory = target
        for shard in self.cube.shards:
            if shard.cube is not None and shard.cube.delta_size:
                self._shard_compactor(shard).compact_once()
        self._workspace.save(target)
        covered = self.cube.num_rows
        keep = [r for r in self.wal.replay() if r.last_tid >= covered]
        wal_bytes = self.wal.rewrite(keep)
        self.last_checkpoint_rows = covered
        self._count("ingest.checkpoints")
        return {
            "rows": covered,
            "wal_bytes": wal_bytes,
            "wal_records": len(keep),
        }

    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        directory: str | Path,
        wal_path: str | Path,
        **kwargs,
    ) -> "ShardedStreamIngestor":
        """Reload the sharded deployment and replay the WAL per row.

        Every logged row routes to its shard via the shard map; rows
        whose global tid the shard already owns (a ``save_shard``
        refresh beat the full checkpoint) are skipped, everything else
        is re-applied in tid order, preserving the sorted tid maps the
        serving layer's binary searches rely on.
        """
        started = time.perf_counter()
        sworkspace = ShardedWorkspace.load(directory)
        cube = sworkspace.cube
        wal = WriteAheadLog(wal_path)
        records, _valid = wal.scan()
        torn = wal.torn_tail_bytes()
        if torn:
            wal.rewrite(records)
        ingestor = cls(cube, wal_path, directory=directory, **kwargs)
        ingestor.repaired_tail_bytes = torn
        missed: dict[int, tuple] = {}
        for record in records:
            for offset, row in enumerate(record.rows):
                gtid = record.first_tid + offset
                # a per-shard refresh may already cover a logged row
                if cube.owner_of(gtid) is None:
                    missed.setdefault(gtid, row)
        cube.place_rows(missed.items())
        replayed = len(missed)
        # Global tids must come out contiguous: snapshots plus the
        # replayed suffix cover 0..num_rows-1 exactly, or the WAL and
        # snapshot directory are from different histories.
        gap = next(
            (t for t in range(cube.num_rows) if cube.owner_of(t) is None), None
        )
        if gap is not None:
            raise IngestError(
                f"WAL gap: deployment holds {cube.num_rows} rows but no "
                f"shard holds tid {gap}"
            )
        if replayed:
            ingestor._applied()
        ingestor.recovered_rows = replayed
        ingestor.last_checkpoint_rows = cube.num_rows - replayed
        ingestor.recovery_wall_s = time.perf_counter() - started
        return ingestor

    def close(self) -> None:
        self.wal.close()

    def __enter__(self) -> "ShardedStreamIngestor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
