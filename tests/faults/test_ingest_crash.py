"""Kill matrix for durable streaming ingestion.

The acceptance bar for the WAL-backed append pipeline: kill the ingestor
at each :data:`INGEST_FAULT_POINTS` seam across 100 seeds, recover from
the snapshot plus WAL, and the replayed state must equal the synchronous
oracle that applied exactly the durable batches — same row count, same
bytes per tid, same top-k answers, zero wrong answers.  Write-ahead
ordering fixes what "durable" means at each point:

* ``wal-append``       — the record never reached ``fsync``: the crash
                         may drop it or leave a torn tail; recovery
                         chops the tail and the batch is simply *gone*.
* ``wal-fsync``        — the record is on stable storage: the batch must
                         survive even though the table/delta never saw it.
* ``delta-tier-flush`` — applied in memory, logged on disk: replay must
                         reproduce the in-memory state exactly.
* ``compaction-swap``  — the kill lands mid-maintenance: recovery must
                         not care which side of the swap the crash hit.

The fifth matrix row — ``replica-promotion`` — kills the *serving* tier
during the promotion itself (:func:`run_failover_schedule` with
``kill_point="promote"``): the kill must surface typed, burn no standby,
and the very next query must heal through a warm promotion.
"""

import random

import pytest

from repro.core import RankingCube, RankingCubeExecutor
from repro.ingest import StreamIngestor
from repro.obs.metrics import MetricsRegistry
from repro.persist import Workspace
from repro.relational import Database

from .harness import (
    INGEST_FAULT_POINTS,
    _queries,
    _rows,
    _schema,
    _scores_match,
    assert_failover_consistent,
    assert_ingest_crash_consistent,
    brute_force_scores,
    run_ingest_schedule,
)

pytestmark = [pytest.mark.faults, pytest.mark.timeout(600)]

SEEDS = range(100)


class TestIngestKillMatrix:
    @pytest.mark.parametrize("fault_point", INGEST_FAULT_POINTS)
    def test_100_seeds_recover_exactly(self, fault_point, tmp_path):
        """100 seeded kills at one fault point, recovery equals oracle."""
        outcomes = [
            assert_ingest_crash_consistent(
                seed, fault_point, directory=tmp_path
            )
            for seed in SEEDS
        ]
        assert all(o.consistent and o.killed for o in outcomes)
        # the sweep must actually replay WAL work somewhere — an all-zero
        # column would mean the kills land before anything was logged
        assert any(o.replayed_rows > 0 for o in outcomes)
        if fault_point == "wal-append":
            # both crash shapes must occur: records dropped cleanly and
            # records torn mid-byte (the tail recovery has to repair)
            assert any(o.torn_tail_bytes > 0 for o in outcomes)
            assert any(o.torn_tail_bytes == 0 for o in outcomes)
            assert all(o.rows_lost > 0 for o in outcomes)
        else:
            assert all(o.rows_lost == 0 for o in outcomes)

    def test_100_seeds_survive_promotion_kill(self):
        """Replica-promotion row of the matrix: kill the promoter itself."""
        outcomes = [
            assert_failover_consistent(seed, "promote", mode="thread")
            for seed in SEEDS
        ]
        assert all(o.kill_surfaced for o in outcomes)
        assert all(o.silent_wrong == 0 for o in outcomes)

    def test_recovery_is_bounded_by_checkpoint(self, tmp_path):
        """Replay work never exceeds rows appended since the snapshot."""
        for seed in (3, 19, 71):
            outcome = assert_ingest_crash_consistent(
                seed, "wal-fsync", directory=tmp_path
            )
            appended = outcome.rows_durable - 48  # num_base default
            assert outcome.replayed_rows == appended
            assert outcome.recovery_wall_s < 30.0

    def test_clean_stream_replays_every_row(self, tmp_path):
        """No kill: 2,000 rows in 100-row batches over a 400-row snapshot,
        compacting every 500.  After a clean close, recovery replays every
        appended row, repairs no tail and answers like brute force over
        all rows; after a checkpoint, a second recovery replays none."""
        rng = random.Random(23)
        schema = _schema()
        base, stream = _rows(rng, 400), _rows(rng, 2_000)
        queries = _queries(rng, 4)
        snapshot, wal = tmp_path / "stream.snapshot", tmp_path / "stream.wal"
        db = Database(buffer_capacity=4096)
        table = db.load_table("R", schema, base)
        cube = RankingCube.build(table, block_size=8)
        workspace = Workspace(db=db, cubes={"R": cube})
        workspace.save(snapshot)
        registry = MetricsRegistry()
        with StreamIngestor(
            workspace, "R", wal, compact_threshold=500, registry=registry
        ) as ingestor:
            for start in range(0, len(stream), 100):
                ingestor.append(stream[start : start + 100])
        assert registry.value("ingest.compactions") == 4

        recovered = StreamIngestor.recover(snapshot, "R", wal)
        assert recovered.recovered_rows == len(stream)
        assert recovered.repaired_tail_bytes == 0
        assert recovered.table.num_rows == len(base) + len(stream)
        executor = RankingCubeExecutor(recovered.cube, recovered.table)
        for query in queries:
            recovered.workspace.db.cold_cache()
            expected = brute_force_scores(schema, base + stream, query)
            assert _scores_match(executor.execute(query).rows, expected)
        recovered.checkpoint(snapshot)
        recovered.close()
        with StreamIngestor.recover(snapshot, "R", wal) as again:
            assert again.recovered_rows == 0
            assert again.table.num_rows == len(base) + len(stream)

    def test_schedules_are_deterministic(self, tmp_path):
        """Same seed + fault point => identical observable outcome."""
        a = run_ingest_schedule(42, fault_point="wal-append", directory=tmp_path)
        b = run_ingest_schedule(42, fault_point="wal-append", directory=tmp_path)
        assert (
            a.killed,
            a.batches_durable,
            a.rows_durable,
            a.rows_lost,
            a.torn_tail_bytes,
            a.replayed_rows,
        ) == (
            b.killed,
            b.batches_durable,
            b.rows_durable,
            b.rows_lost,
            b.torn_tail_bytes,
            b.replayed_rows,
        )

    def test_unknown_fault_point_is_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            run_ingest_schedule(0, fault_point="reticulate")
