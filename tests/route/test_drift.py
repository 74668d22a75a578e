"""Unit tests for drift detection + online re-partitioning (repro.route.drift)."""

import random

import pytest

from repro.core import CubeCompactor, RankingCube, RankingCubeExecutor
from repro.core.partition import EquiDepthPartitioner
from repro.obs import MetricsRegistry
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import DriftDetector, repartition_cube
from repro.workloads import DriftingQueryStream, WorkloadPhase, shifted_rows
from repro.workloads.oracle import brute_force_topk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_env(seed=29, count=300):
    rng = random.Random(seed)
    rows = [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]
    db = Database(buffer_capacity=128)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=12)
    return db, table, cube, rows


def skewed_append(table, cube, count=200, seed=31):
    """Append tuples whose ranking values all pile into the top bins."""
    rng = random.Random(seed)
    appended = [
        (
            rng.randrange(CARDS[0]),
            rng.randrange(CARDS[1]),
            rng.uniform(0.9, 1.0),
            rng.uniform(0.9, 1.0),
        )
        for _ in range(count)
    ]
    table.insert_rows(appended)
    assert cube.refresh_delta(table) == len(appended)
    return appended


def query(k=5, selections=None):
    return TopKQuery(
        k, selections if selections is not None else {"a1": 1},
        LinearFunction(["n1", "n2"], [1.0, 0.5]),
    )


class TestDriftDetector:
    def test_threshold_must_exceed_one(self):
        db, table, cube, _ = make_env()
        with pytest.raises(ValueError):
            DriftDetector(cube, threshold=1.0)

    def test_fresh_equidepth_build_is_balanced(self):
        db, table, cube, rows = make_env()
        report = DriftDetector(cube).check()
        assert not report.drifted
        assert report.tuples == len(rows)
        assert report.max_depth_ratio == pytest.approx(1.0, abs=0.35)
        assert set(report.per_dim) == {"n1", "n2"}

    def test_skewed_delta_raises_the_ratio_past_threshold(self):
        db, table, cube, rows = make_env()
        detector = DriftDetector(cube, threshold=2.0)
        baseline = detector.check().max_depth_ratio
        appended = skewed_append(table, cube)
        report = detector.check()
        assert report.tuples == len(rows) + len(appended)
        assert report.max_depth_ratio > baseline
        assert report.drifted
        assert detector.last_report is report


class TestRepartition:
    def test_swap_rebalances_and_absorbs_delta(self):
        db, table, cube, rows = make_env()
        appended = skewed_append(table, cube)
        live = rows + appended
        assert DriftDetector(cube).check().drifted

        registry = MetricsRegistry()
        epochs_before = {c.name: c.epoch for c in cube.cuboids.values()}
        report = repartition_cube(cube, table, db.pool, registry=registry)

        assert report.swapped and not report.aborted
        assert report.tuples == len(live)
        assert report.absorbed_delta == len(appended)
        assert len(cube._delta) == 0
        # every cuboid generation bumped by exactly one
        for cuboid in cube.cuboids.values():
            assert cuboid.epoch == epochs_before[cuboid.name] + 1
        assert cube.epoch == next(iter(cube.cuboids.values())).epoch
        # the rebuilt grid is equi-depth over the *live* distribution
        assert not DriftDetector(cube).check().drifted
        assert registry.counter("route.repartition.swaps").value == 1
        assert (
            registry.counter("route.repartition.delta_absorbed").value
            == len(appended)
        )

        # answers over the new geometry are still the oracle's, bitwise
        executor = RankingCubeExecutor(cube, table)
        for q in (query(), query(k=7, selections={"a1": 0, "a2": 2}), query(k=3, selections={})):
            got = [(r.score, r.tid) for r in executor.execute(q).rows]
            assert got == brute_force_topk(SCHEMA, live, q)

    def test_abort_when_compaction_swaps_generations_underneath(self):
        db, table, cube, rows = make_env()
        appended = skewed_append(table, cube)

        class RacingPartitioner(EquiDepthPartitioner):
            def build_grid(self, dims, columns, block_size):
                # a compaction lands while we are building the new grid
                assert CubeCompactor(cube, db.pool).compact_once().swapped
                return super().build_grid(dims, columns, block_size)

        registry = MetricsRegistry()
        report = repartition_cube(
            cube, table, db.pool,
            partitioner=RacingPartitioner(), registry=registry,
        )
        assert report.aborted and not report.swapped
        assert registry.counter("route.repartition.aborts").value == 1

        # the compactor won the race; answers are still exact
        executor = RankingCubeExecutor(cube, table)
        got = [(r.score, r.tid) for r in executor.execute(query()).rows]
        assert got == brute_force_topk(SCHEMA, rows + appended, query())


class TestDriftingWorkload:
    def test_stream_is_deterministic_and_phase_structured(self):
        phases = (
            WorkloadPhase(selection_sets=(("a1",), ("a1", "a2")), queries=10, k=4),
            WorkloadPhase(selection_sets=(("a2",),), queries=6, k=2),
        )
        stream = DriftingQueryStream(schema=SCHEMA, phases=phases, seed=99)
        first = list(stream)
        second = list(DriftingQueryStream(schema=SCHEMA, phases=phases, seed=99))
        assert len(first) == 16
        assert [
            (q.k, tuple(sorted(q.selections.items()))) for q in first
        ] == [(q.k, tuple(sorted(q.selections.items()))) for q in second]
        # phase boundaries hold: the tail only constrains a2
        assert all(set(q.selections) == {"a2"} for q in first[10:])
        assert all(
            set(q.selections) in ({"a1"}, {"a1", "a2"}) for q in first[:10]
        )

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            WorkloadPhase(selection_sets=(), queries=5)
        with pytest.raises(ValueError):
            WorkloadPhase(selection_sets=(("a1",),), queries=0)

    def test_shifted_rows_land_in_the_configured_band(self):
        rows = shifted_rows(SCHEMA, 50, seed=3, low=0.85, high=1.0)
        again = shifted_rows(SCHEMA, 50, seed=3, low=0.85, high=1.0)
        assert rows == again
        assert len(rows) == 50
        for row in rows:
            a1, a2, n1, n2 = row
            assert 0 <= a1 < CARDS[0] and 0 <= a2 < CARDS[1]
            assert 0.85 <= n1 < 1.0 and 0.85 <= n2 < 1.0


class TestRepartitionIsABuild:
    def test_stores_equal_a_fresh_build_over_the_snapshot_rows(self, monkeypatch):
        """A repartition materializes exactly what RankingCube.build makes
        of its snapshot's live rows on the new grid: the base rows plus
        the whole delta, residuals included, and nothing appended after
        the snapshot (those rows stay in the delta)."""
        db, table, cube, rows = make_env()
        rng = random.Random(37)
        # a compaction leaves out-of-grid rows residual in the delta
        table.insert_rows([(1, 2, 1.5, 0.5), (0, 3, 0.2, -0.5)])
        cube.refresh_delta(table)
        assert CubeCompactor(cube, db.pool).compact_once().residual == 2
        appended = skewed_append(table, cube, count=60)
        live = rows + [(1, 2, 1.5, 0.5), (0, 3, 0.2, -0.5)] + appended
        late = [(rng.randrange(3), rng.randrange(4), 0.5, 0.5) for _ in range(5)]
        flush = db.pool.flush

        def flush_after_a_late_append():
            monkeypatch.setattr(db.pool, "flush", flush)
            table.insert_rows(late)
            cube.refresh_delta(table)
            flush()

        monkeypatch.setattr(db.pool, "flush", flush_after_a_late_append)
        assert repartition_cube(cube, table, db.pool).swapped
        assert cube.delta_size == len(late)

        fresh_db = Database(buffer_capacity=128)
        fresh = RankingCube.build(
            fresh_db.load_table("R", SCHEMA, live), block_size=12, grid=cube.grid
        )
        assert dict(cube.base_table.blocks()) == dict(fresh.base_table.blocks())
        assert cube.cuboids.keys() == fresh.cuboids.keys()
        for key, cuboid in cube.cuboids.items():
            assert dict(cuboid.cells()) == dict(fresh.cuboids[key].cells())
        assert cube.size_in_bytes == fresh.size_in_bytes
