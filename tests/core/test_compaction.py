"""Units for delta compaction: foreground merge, residuals, epochs,
metrics, and the background worker's lifecycle."""

import random
import threading
import time

import pytest

from repro.core import (
    BaseBlockTable,
    CubeCompactor,
    CompactionError,
    RankingCube,
    RankingCubeExecutor,
    RankingCuboid,
)
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.storage import RecordCodec
from repro.workloads.oracle import brute_force_topk

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(rng, count=80, lo=0.0, hi=1.0):
    return [
        (
            rng.randrange(3),
            rng.randrange(4),
            lo + (hi - lo) * rng.random(),
            lo + (hi - lo) * rng.random(),
        )
        for _ in range(count)
    ]


def make_queries(rng, count=6):
    queries = []
    for _ in range(count):
        selections = {"a1": rng.randrange(3)}
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(4)
        fn = LinearFunction(["n1", "n2"], [0.1 + rng.random(), 0.1 + rng.random()])
        queries.append(TopKQuery(rng.randint(1, 6), selections, fn))
    return queries


def build_stack(rows):
    db = Database(buffer_capacity=512)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=8)
    return db, table, cube


def encoded(codec, groups):
    """``{key: records}`` as key-ordered runs, packed record by record."""
    return [
        (key, codec.pack(groups[key]), len(groups[key])) for key in sorted(groups)
    ]


def compact_by_full_rewrite(pool, cube):
    """The compaction the splice replaced, written out: decode every stored
    block and cell, append the delta in tid order, re-pack it all record
    by record and write it through ``from_runs``.  Assumes every delta
    entry is inside the grid."""
    state = cube.snapshot()
    grid = state.grid
    ordered = sorted(state.delta, key=lambda entry: entry[0])
    base_groups = dict(state.base_table.blocks())
    bids = {}
    for tid, _sel, rank_values in ordered:
        point = tuple(float(rank_values[d]) for d in grid.dims)
        bids[tid] = grid.locate(point)
        base_groups.setdefault(bids[tid], []).append((int(tid), *point))
    base = BaseBlockTable.from_runs(
        pool, grid,
        encoded(RecordCodec("q" + "d" * grid.num_dims),
                {(bid,): records for bid, records in base_groups.items()}),
    )
    cuboids = {}
    for key, cuboid in state.cuboids.items():
        groups = dict(cuboid.cells())
        for tid, sel_values, _rank in ordered:
            cell = tuple(int(sel_values[d]) for d in cuboid.dims) + (
                cuboid.pid_of_bid(bids[tid]),
            )
            groups.setdefault(cell, []).append((int(tid), int(bids[tid])))
        cuboids[key] = RankingCuboid.from_runs(
            pool, cuboid.dims, cuboid.cardinalities, grid,
            encoded(RecordCodec("qi"), groups),
            scale_override=cuboid.scale_factor, epoch=cuboid.epoch + 1,
        )
    pool.flush()
    with cube._state_lock:
        cube.base_table, cube.cuboids, cube._delta = base, cuboids, []


def signatures(executor, queries):
    return [
        [(row.tid, round(row.score, 9)) for row in executor.execute(q).rows]
        for q in queries
    ]


class TestForegroundCompaction:
    def test_compact_absorbs_delta_and_answers_stay_equal(self):
        rng = random.Random(5)
        rows = make_rows(rng)
        appended = make_rows(rng, count=30)
        queries = make_queries(rng)

        db, table, cube = build_stack(rows)
        table.insert_rows(appended)
        cube.refresh_delta(table)
        executor = RankingCubeExecutor(cube, table)
        before = signatures(executor, queries)

        report = CubeCompactor(cube, db.pool).compact_once()
        assert report.swapped
        assert report.absorbed + report.residual == len(appended)
        assert cube.delta_size == report.residual

        after = signatures(RankingCubeExecutor(cube, table), queries)
        assert after == before

        # equals a from-scratch build over the union
        ref_db, ref_table, ref_cube = build_stack(rows + appended)
        expected = signatures(RankingCubeExecutor(ref_cube, ref_table), queries)
        assert after == expected

    def test_out_of_grid_tuples_stay_residual(self):
        rng = random.Random(9)
        # base rows in [0.2, 0.8); appended rows straddle the grid box
        rows = make_rows(rng, count=60, lo=0.2, hi=0.8)
        inside = make_rows(rng, count=10, lo=0.3, hi=0.7)
        outside = make_rows(rng, count=5, lo=0.9, hi=1.0)

        db, table, cube = build_stack(rows)
        table.insert_rows(inside + outside)
        cube.refresh_delta(table)

        report = CubeCompactor(cube, db.pool).compact_once()
        assert report.absorbed == len(inside)
        assert report.residual == len(outside)
        assert cube.delta_size == len(outside)

        # residual tuples still answer through the delta merge
        queries = make_queries(rng)
        got = signatures(RankingCubeExecutor(cube, table), queries)
        ref_db, ref_table, ref_cube = build_stack(rows + inside + outside)
        expected = signatures(RankingCubeExecutor(ref_cube, ref_table), queries)
        assert got == expected

    def test_epochs_bump_every_swap(self):
        rng = random.Random(2)
        db, table, cube = build_stack(make_rows(rng))
        assert {c.epoch for c in cube.cuboids.values()} == {0}
        compactor = CubeCompactor(cube, db.pool)
        for expected_epoch in (1, 2):
            table.insert_rows(make_rows(rng, count=10))
            cube.refresh_delta(table)
            report = compactor.compact_once()
            if report.swapped:
                assert {c.epoch for c in cube.cuboids.values()} == {
                    expected_epoch
                }

    def test_cells_merged_counts_distinct_cells(self):
        rng = random.Random(7)
        db, table, cube = build_stack(make_rows(rng))
        # two equal rows: one block, and one cell in every cuboid
        table.insert_rows([(1, 2, 0.5, 0.5), (1, 2, 0.5, 0.5)])
        cube.refresh_delta(table)
        report = CubeCompactor(cube, db.pool).compact_once()
        assert report.absorbed == 2
        assert report.cells_merged == len(cube.cuboids)
        assert db.pool.registry.value("compact.cells_merged") == len(cube.cuboids)

    def test_device_image_equals_the_full_rewrite(self):
        """Splicing writes the pages a decode-everything rewrite writes,
        byte for byte, in the same allocation order, over two rounds."""
        rng = random.Random(31)
        rows = make_rows(rng)
        rounds = [make_rows(rng, count=count, lo=0.3, hi=0.7) for count in (25, 9)]
        twins = [build_stack(rows) for _ in range(2)]
        for appended in rounds:
            for db, table, cube in twins:
                table.insert_rows(appended)
                cube.refresh_delta(table)
            (db, _table, cube), (twin_db, _twin_table, twin_cube) = twins
            assert CubeCompactor(cube, db.pool).compact_once().residual == 0
            compact_by_full_rewrite(twin_db.pool, twin_cube)
            assert db.device.num_pages == twin_db.device.num_pages
            assert db.device.fingerprint() == twin_db.device.fingerprint()

    def test_compacted_cuboids_share_the_warm_pseudo_map(self):
        """Compaction keeps the grid, so each next-generation cuboid takes
        its parent's pseudo-block map and warm bid -> pid table; a drift
        repartition builds a new grid and with it a new map."""
        rng = random.Random(31)
        db, table, cube = build_stack(make_rows(rng))
        executor = RankingCubeExecutor(cube, table)
        for query in make_queries(rng):
            executor.execute(query)
        before = dict(cube.cuboids)
        warm = {key: dict(c.pseudo._pids) for key, c in before.items()}
        assert any(warm.values())

        table.insert_rows(make_rows(rng, count=20, lo=0.1, hi=0.9))
        cube.refresh_delta(table)
        assert CubeCompactor(cube, db.pool).compact_once().swapped
        for key, cuboid in cube.cuboids.items():
            assert cuboid.epoch == before[key].epoch + 1
            assert cuboid.pseudo is before[key].pseudo
            assert warm[key].items() <= cuboid.pseudo._pids.items()

        from repro.route.drift import repartition_cube

        compacted = dict(cube.cuboids)
        assert repartition_cube(cube, table, db.pool).swapped
        for key, cuboid in cube.cuboids.items():
            assert cuboid.pseudo is not compacted[key].pseudo
            assert cuboid.pseudo.grid is cube.grid

    def test_empty_delta_is_a_noop(self):
        rng = random.Random(4)
        db, table, cube = build_stack(make_rows(rng))
        report = CubeCompactor(cube, db.pool).compact_once()
        assert not report.swapped
        assert report.absorbed == 0
        assert {c.epoch for c in cube.cuboids.values()} == {0}

    def test_metrics_recorded(self):
        rng = random.Random(6)
        db, table, cube = build_stack(make_rows(rng))
        registry = db.pool.registry
        table.insert_rows(make_rows(rng, count=12))
        cube.refresh_delta(table)
        compactor = CubeCompactor(cube, db.pool)
        report = compactor.compact_once()
        assert registry.value("compact.runs") == 1
        assert registry.value("compact.swaps") == (1 if report.swapped else 0)
        assert registry.value("compact.tuples_absorbed") == report.absorbed
        compactor.compact_once()  # nothing left: a recorded no-op
        assert registry.value("compact.runs") == 2
        assert registry.value("compact.noops") >= 1

    def test_build_metrics_recorded(self):
        rng = random.Random(8)
        db = Database(buffer_capacity=512)
        table = db.load_table("R", SCHEMA, make_rows(rng))
        cube = RankingCube.build(table, block_size=8)
        registry = db.pool.registry
        assert registry.value("build.runs") == 1
        assert registry.value("build.tuples") == 80
        assert registry.value("build.cuboids") == len(cube.cuboids)

    def test_min_delta_validation(self):
        rng = random.Random(1)
        db, table, cube = build_stack(make_rows(rng, count=20))
        with pytest.raises(CompactionError):
            CubeCompactor(cube, db.pool, min_delta=0)


class TestBackgroundCompactor:
    def _wait_for(self, predicate, timeout=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if predicate():
                return True
            time.sleep(0.01)
        return False

    def test_worker_drains_once_threshold_reached(self):
        rng = random.Random(3)
        db, table, cube = build_stack(make_rows(rng))
        with CubeCompactor(cube, db.pool, min_delta=10).start() as compactor:
            table.insert_rows(make_rows(rng, count=25))
            cube.refresh_delta(table)
            assert self._wait_for(
                lambda: compactor.last_report is not None
                and compactor.last_report.swapped
            )
            assert compactor.last_error is None
        assert not compactor.running
        assert cube.delta_size < 25

    def test_wake_compacts_below_threshold(self):
        rng = random.Random(12)
        db, table, cube = build_stack(make_rows(rng))
        with CubeCompactor(cube, db.pool, min_delta=1000).start() as compactor:
            table.insert_rows(make_rows(rng, count=5))
            cube.refresh_delta(table)
            compactor.wake()
            assert self._wait_for(lambda: compactor.runs >= 1)

    def test_residual_only_delta_does_not_busy_loop(self):
        rng = random.Random(15)
        db, table, cube = build_stack(make_rows(rng, count=60, lo=0.2, hi=0.8))
        with CubeCompactor(cube, db.pool, min_delta=3).start() as compactor:
            # everything appended is out of grid: one run classifies it
            # residual, then the worker must go back to sleep
            table.insert_rows(make_rows(rng, count=6, lo=0.9, hi=1.0))
            cube.refresh_delta(table)
            assert self._wait_for(lambda: compactor.runs >= 1)
            runs_after_first = compactor.runs
            time.sleep(0.3)
            assert compactor.runs <= runs_after_first + 1
            assert cube.delta_size == 6

    def test_start_is_idempotent_and_close_twice_safe(self):
        rng = random.Random(2)
        db, table, cube = build_stack(make_rows(rng, count=20))
        compactor = CubeCompactor(cube, db.pool)
        assert compactor.start() is compactor.start()
        compactor.close()
        compactor.close()
        with pytest.raises(CompactionError):
            compactor.start()

    def test_foreground_and_background_serialize(self):
        """Concurrent compact_once calls never interleave a swap."""
        rng = random.Random(21)
        db, table, cube = build_stack(make_rows(rng))
        table.insert_rows(make_rows(rng, count=40))
        cube.refresh_delta(table)
        compactor = CubeCompactor(cube, db.pool)
        reports = []

        def run():
            reports.append(compactor.compact_once())

        threads = [threading.Thread(target=run) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for r in reports if r.swapped) == 1
        assert {c.epoch for c in cube.cuboids.values()} == {1}
