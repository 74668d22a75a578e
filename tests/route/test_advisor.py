"""Unit tests for the online materialization advisor (repro.route.advisor)."""

import random
import time

import pytest

from repro.core import CubeCompactor, RankingCube, RankingCubeExecutor
from repro.core.estimate import estimate_cube_cost, estimate_cube_pages
from repro.obs import MetricsRegistry, Tracer
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import AdvisorError, CubeAdvisor
from repro.workloads.oracle import brute_force_topk

CARDS = (3, 4, 5)
SCHEMA = Schema.of(
    [
        selection_attr("a1", CARDS[0]),
        selection_attr("a2", CARDS[1]),
        selection_attr("a3", CARDS[2]),
    ]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_env(seed=19, count=240, cuboid_sets=None):
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(CARDS[0]),
            rng.randrange(CARDS[1]),
            rng.randrange(CARDS[2]),
            rng.random(),
            rng.random(),
        )
        for _ in range(count)
    ]
    db = Database(buffer_capacity=128)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(
        table,
        block_size=12,
        cuboid_sets=cuboid_sets
        if cuboid_sets is not None
        else [(d,) for d in SCHEMA.selection_names],
    )
    return db, table, cube, rows


def query(selections, k=5):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


def observe_n(advisor, selections, n):
    for _ in range(n):
        advisor.observe(query(selections))


class TestValidation:
    def test_rejects_bad_config(self):
        db, table, cube, _ = make_env()
        with pytest.raises(AdvisorError):
            CubeAdvisor(cube, table, db.pool, min_observations=0)

    def test_empty_selection_sets_are_not_observed(self):
        db, table, cube, _ = make_env()
        advisor = CubeAdvisor(cube, table, db.pool)
        advisor.observe(query({}))
        assert advisor.window_size == 0


class TestPromotion:
    def test_hot_missing_set_gets_materialized_at_current_epoch(self):
        db, table, cube, rows = make_env()
        hot_key = frozenset({"a1", "a2"})
        assert hot_key not in cube.cuboids
        registry = MetricsRegistry()
        advisor = CubeAdvisor(
            cube, table, db.pool, min_observations=8, registry=registry
        )
        observe_n(advisor, {"a1": 1, "a2": 2}, 12)

        report = advisor.advise_once()
        assert report.swapped and not report.aborted
        assert report.promoted and hot_key in cube.cuboids
        # mixed-generation guard must still hold after the swap
        assert cube.cuboids[hot_key].epoch == cube.epoch
        assert registry.counter("route.advisor.promotions").value == 1

        # the promoted cuboid serves exact answers
        executor = RankingCubeExecutor(cube, table)
        q = query({"a1": 1, "a2": 2})
        got = [(r.score, r.tid) for r in executor.execute(q).rows]
        assert got == brute_force_topk(SCHEMA, rows, q)
        # the run used up its window
        assert advisor.window_size == 0

    def test_noop_below_min_observations(self):
        db, table, cube, _ = make_env()
        advisor = CubeAdvisor(cube, table, db.pool, min_observations=10)
        observe_n(advisor, {"a1": 0, "a2": 0}, 9)
        report = advisor.advise_once()
        assert not report.swapped and not report.promoted
        assert frozenset({"a1", "a2"}) not in cube.cuboids


#: Two competing shapes: {a1,a2} is popular but its cells are large, so a
#: cuboid on it saves little; {a3,a4} is rare but its cells are small.
WIDE_CARDS = (3, 4, 16, 16)
WIDE_SCHEMA = Schema.of(
    [selection_attr(f"a{i}", c) for i, c in enumerate(WIDE_CARDS, 1)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)
WIDE_SINGLETONS = [(d,) for d in WIDE_SCHEMA.selection_names]


def make_wide_env(count):
    rng = random.Random(19)
    rows = [
        tuple(rng.randrange(c) for c in WIDE_CARDS) + (rng.random(), rng.random())
        for _ in range(count)
    ]
    db = Database()
    table = db.load_table("R", WIDE_SCHEMA, rows)
    cube = RankingCube.build(table, block_size=40, cuboid_sets=WIDE_SINGLETONS)
    return db, table, cube


def competing_workload():
    rng = random.Random(3)
    return [
        query({"a1": rng.randrange(3), "a2": rng.randrange(4)}, k=10)
        for _ in range(12)
    ] + [
        query({"a3": rng.randrange(16), "a4": rng.randrange(16)}, k=10)
        for _ in range(3)
    ]


def observed_pages(cube, table, workload):
    executor = RankingCubeExecutor(cube, table)
    return sum(executor.execute(q).blocks_accessed for q in workload)


class TestObjective:
    def test_the_cuboid_that_saves_the_most_pages_beats_the_popular_one(self):
        """Room for one cuboid: the advisor takes the shape whose cuboid
        the estimate says saves the most pages over the window, not the
        most frequent one, and the workload reads fewer pages for it."""
        db, table, cube = make_wide_env(40_000)
        workload = competing_workload()
        entries = sum(c.num_entries for c in cube.cuboids.values())
        tracer = Tracer()
        advisor = CubeAdvisor(
            cube, table, db.pool,
            space_budget_entries=entries + table.num_rows,
            min_observations=len(workload),
            tracer=tracer,
        )
        for q in workload:
            advisor.observe(q)
        report = advisor.advise_once()
        assert report.swapped and report.benefit > 0
        assert tracer.root.name == "route.advise"
        assert tracer.root.counters["benefit"] == report.benefit
        assert frozenset({"a3", "a4"}) in cube.cuboids
        assert frozenset({"a1", "a2"}) not in cube.cuboids
        assert report.skipped == ("a1,a2",)
        popular = RankingCube.build(
            table, block_size=40, cuboid_sets=WIDE_SINGLETONS + [("a1", "a2")]
        )
        assert observed_pages(cube, table, workload) < observed_pages(
            popular, table, workload
        )

    def test_a_candidate_is_priced_as_its_installed_cuboid(self):
        db, table, cube = make_wide_env(6_000)
        key = frozenset({"a3", "a4"})
        q = query({"a3": 5, "a4": 7}, k=10)
        advisor = CubeAdvisor(cube, table, db.pool, min_observations=1)
        state = cube.snapshot()
        priced = advisor._price_candidates(state, [key])
        before_install = estimate_cube_pages(state, [priced[key]], q)

        advisor.observe(q)
        assert advisor.advise_once().promoted
        assert key in cube.cuboids
        assert estimate_cube_cost(cube, table, q).pages == before_install

    def test_a_window_the_installed_cuboids_serve_best_swaps_nothing(self):
        db, table, cube, _ = make_env(
            cuboid_sets=[("a1",), ("a2",), ("a3",), ("a1", "a2")]
        )
        cuboids = dict(cube.cuboids)
        advisor = CubeAdvisor(cube, table, db.pool, min_observations=4)
        observe_n(advisor, {"a1": 0, "a2": 1}, 6)
        observe_n(advisor, {"a3": 2}, 2)
        report = advisor.advise_once()
        assert report.observations == 8
        assert not report.swapped and not report.aborted
        assert report.benefit == 0.0
        assert cube.cuboids == cuboids
        # the run used up its window: the daemon has nothing pending
        assert advisor.window_size == 0
        assert not advisor._pending()


class TestBudget:
    def test_skips_promotion_that_cannot_fit(self):
        db, table, cube, _ = make_env()
        entries = sum(c.num_entries for c in cube.cuboids.values())
        advisor = CubeAdvisor(
            cube,
            table,
            db.pool,
            min_observations=4,
            space_budget_entries=entries,  # no headroom, nothing demotable
        )
        observe_n(advisor, {"a1": 0, "a2": 0}, 8)
        report = advisor.advise_once()
        assert not report.promoted
        assert report.skipped == ("a1,a2",)
        # singletons are the covering safety net: never demoted for space
        assert all(len(key) == 1 for key in cube.cuboids)

    def test_demotes_cold_non_singleton_to_make_room(self):
        # seed the cube with a non-singleton nobody queries
        db, table, cube, rows = make_env(
            cuboid_sets=[("a1",), ("a2",), ("a3",), ("a2", "a3")]
        )
        entries = sum(c.num_entries for c in cube.cuboids.values())
        advisor = CubeAdvisor(
            cube,
            table,
            db.pool,
            min_observations=4,
            space_budget_entries=entries,  # fits only by evicting the cold one
        )
        observe_n(advisor, {"a1": 0, "a2": 0}, 8)
        report = advisor.advise_once()
        assert report.swapped
        assert frozenset({"a1", "a2"}) in cube.cuboids
        assert frozenset({"a2", "a3"}) not in cube.cuboids
        assert report.demoted[0].startswith("a2a3|")
        # the covering singletons all survived
        for dim in SCHEMA.selection_names:
            assert frozenset({dim}) in cube.cuboids
        after = sum(c.num_entries for c in cube.cuboids.values())
        assert after <= entries


    def test_an_over_budget_cube_sheds_its_least_useful_cuboid(self):
        db, table, cube, _ = make_env(
            cuboid_sets=[("a1",), ("a2",), ("a3",), ("a1", "a3"), ("a2", "a3")]
        )
        entries = sum(c.num_entries for c in cube.cuboids.values())
        advisor = CubeAdvisor(
            cube, table, db.pool, min_observations=4,
            space_budget_entries=entries - table.num_rows,  # one too many
        )
        observe_n(advisor, {"a1": 1, "a3": 2}, 8)
        report = advisor.advise_once()
        assert report.swapped and not report.promoted
        # {a2,a3} serves none of the window; {a1,a3} serves all of it
        assert frozenset({"a2", "a3"}) not in cube.cuboids
        assert frozenset({"a1", "a3"}) in cube.cuboids
        assert report.demoted[0].startswith("a2a3|")


class TestConcurrency:
    def test_swap_aborts_when_compaction_races(self):
        db, table, cube, _ = make_env()
        rng = random.Random(5)
        appended = [
            (
                rng.randrange(CARDS[0]),
                rng.randrange(CARDS[1]),
                rng.randrange(CARDS[2]),
                rng.uniform(0.3, 0.7),
                rng.uniform(0.3, 0.7),
            )
            for _ in range(15)
        ]
        table.insert_rows(appended)
        assert cube.refresh_delta(table) == len(appended)

        class RacedAdvisor(CubeAdvisor):
            raced = False

            def _build_promotions(self, state, rows, promote):
                if not RacedAdvisor.raced:
                    # a compaction lands between our snapshot and our swap
                    RacedAdvisor.raced = True
                    report = CubeCompactor(self.cube, db.pool).compact_once()
                    assert report.swapped
                return super()._build_promotions(state, rows, promote)

        registry = MetricsRegistry()
        advisor = RacedAdvisor(
            cube, table, db.pool, min_observations=4, registry=registry
        )
        observe_n(advisor, {"a1": 0, "a2": 0}, 8)
        report = advisor.advise_once()
        assert report.aborted and not report.swapped
        assert frozenset({"a1", "a2"}) not in cube.cuboids
        assert registry.counter("route.advisor.aborts").value == 1
        # the window survives for the retry on the next round
        assert advisor.window_size == 8
        retry = advisor.advise_once()
        assert retry.swapped
        assert frozenset({"a1", "a2"}) in cube.cuboids
        assert cube.epoch == cube.cuboids[frozenset({"a1", "a2"})].epoch


class TestDaemon:
    def test_background_worker_promotes_and_closes(self):
        db, table, cube, _ = make_env()
        advisor = CubeAdvisor(cube, table, db.pool, min_observations=6).start()
        assert advisor.start() is advisor  # idempotent
        try:
            observe_n(advisor, {"a1": 1, "a2": 1}, 10)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if frozenset({"a1", "a2"}) in cube.cuboids:
                    break
                time.sleep(0.01)
            assert frozenset({"a1", "a2"}) in cube.cuboids
            assert advisor.last_error is None
        finally:
            advisor.close()
        assert not advisor.running
        with pytest.raises(AdvisorError):
            advisor.start()
