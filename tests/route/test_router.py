"""Unit tests for the adaptive router (repro.route.router)."""

import math
import random

import numpy as np
import pytest

from repro.baselines.scan import BaselineExecutor
from repro.core import CubeError, RankingCube, RankingCubeExecutor
from repro.core.estimate import estimate_cube_cost
from repro.obs import MetricsRegistry
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import (
    AdaptiveRouter,
    CubeAdvisor,
    DriftDetector,
    RoutePath,
    repartition_cube,
)
from repro.storage.device import RANDOM_READ_WEIGHT, SEQ_READ_WEIGHT
from repro.workloads.drifting import DriftingQueryStream, WorkloadPhase, shifted_rows
from repro.workloads.oracle import brute_force_topk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(seed=13, count=300):
    rng = random.Random(seed)
    return [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]


def make_env(seed=13, count=300):
    rows = make_rows(seed, count)
    db = Database(buffer_capacity=64)
    table = db.load_table("R", SCHEMA, rows)
    for name in SCHEMA.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(table, block_size=12)
    return db, table, cube, rows


def query(k=5, selections=None):
    return TopKQuery(
        k, selections if selections is not None else {"a1": 1},
        LinearFunction(["n1", "n2"], [1.0, 0.5]),
    )


class StubPath(RoutePath):
    """A scripted path: a fixed estimate, a scripted observed cost."""

    def __init__(self, name, estimate, observed=None):
        self.name = name
        self.estimate = estimate
        self.observed = observed if observed is not None else estimate
        self.executions = 0

    def estimate_io(self, q):
        return self.estimate

    def execute(self, q, trace=None, tracer=None):
        self.executions += 1

        class _Result:
            rows = ()
            blocks_accessed = 1

        return _Result(), self.observed


def make_table(seed=13):
    db = Database(buffer_capacity=64)
    return db.load_table("R", SCHEMA, make_rows(seed, 120))


def run(router, q):
    """Execute one query; return the decision the router kept for it."""
    router.execute(q)
    return router.last_decision


class TestValidation:
    def test_needs_at_least_one_path(self):
        with pytest.raises(ValueError, match="at least one"):
            AdaptiveRouter(make_table(), [])

    def test_rejects_duplicate_path_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            AdaptiveRouter(
                make_table(), [StubPath("p", 1.0), StubPath("p", 2.0)]
            )

    def test_for_cube_rejects_an_executor_over_another_cube(self):
        _db, table, cube, _rows = make_env()
        other = RankingCube.build(table, block_size=12)
        with pytest.raises(ValueError, match="executor"):
            AdaptiveRouter.for_cube(
                cube, table, executor=RankingCubeExecutor(other, table)
            )


class TestDecide:
    def test_routes_to_the_cheapest_estimate_every_time(self):
        """No exploration and no learning: observed costs never move the
        decision, which is the minimum estimate on every query."""
        table = make_table()
        cheap = StubPath("cheap", estimate=10.0, observed=500.0)
        near = StubPath("near", estimate=11.0, observed=1.0)
        router = AdaptiveRouter(table, [near, cheap])
        assert [run(router, query()).path for _ in range(4)] == ["cheap"] * 4
        assert near.executions == 0

    def test_ties_break_deterministically_by_name(self):
        table = make_table()
        router = AdaptiveRouter(
            table, [StubPath("zeta", 10.0), StubPath("alpha", 10.0)],
        )
        assert router.decide(query()).path == "alpha"

    def test_no_usable_path_raises_before_running_one(self):
        """With every path priced at inf, nothing runs."""
        table = make_table()
        paths = [StubPath("a", math.inf), StubPath("b", math.inf)]
        router = AdaptiveRouter(table, paths)
        with pytest.raises(CubeError, match="available grids"):
            router.decide(query())
        with pytest.raises(CubeError):
            router.execute(query())
        assert [p.executions for p in paths] == [0, 0]
        assert router.last_decision is None

    def test_decision_records_full_cost_tables(self):
        """Every path's estimate, beside what the chosen one cost."""
        table = make_table()
        router = AdaptiveRouter(
            table, [StubPath("a", 10.0, observed=12.0), StubPath("b", 30.0)]
        )
        assert router.decide(query()).analytic == {"a": 10.0, "b": 30.0}
        decision = run(router, query())
        assert decision.path == "a"
        assert decision.analytic == {"a": 10.0, "b": 30.0}
        assert (decision.observed_io, decision.observed_pages) == (12.0, 1)
        assert decision.wall_s >= 0.0

    def test_planning_reads_no_device_page(self):
        """Pricing a cold query reads the cube's in-memory counts and
        the table's histograms: with the buffer pool dropped, deciding
        moves no device read."""
        db, table, cube, _rows = make_env()
        router = AdaptiveRouter.for_cube(cube, table)
        queries = [
            query(k=5, selections={"a1": 1}),
            query(k=3, selections={"a1": 0, "a2": 2}),
            query(k=4, selections={}),
        ]
        for q in queries:
            db.pool.clear()
            before = db.device.stats.reads
            decision = router.decide(q)
            assert db.device.stats.reads == before
            assert decision.analytic["cube"] > 0


class TestForCube:
    def test_standard_family_and_answer_identity(self):
        """Every path the standard family routes to returns the oracle
        answer, byte for byte."""
        db, table, cube, rows = make_env()
        router = AdaptiveRouter.for_cube(cube, table)
        assert set(router.paths) == {"cube", "baseline"}

        queries = [
            query(k=5, selections={"a1": 1}),
            query(k=3, selections={"a1": 0, "a2": 2}),
            query(k=8, selections={"a2": 3}),
            query(k=4, selections={}),
        ]
        for q in queries:
            expected = brute_force_topk(SCHEMA, rows, q)
            # every path in the family individually returns the oracle
            # answer — the precondition that makes routing cost-only
            for path in router.paths.values():
                result, observed_io = path.execute(q)
                assert [(r.score, r.tid) for r in result.rows] == expected
                assert observed_io >= 0.0
            got = [(r.score, r.tid) for r in router.execute(q).rows]
            assert got == expected

    def test_a_promotion_changes_the_cube_estimate(self):
        """An advisor promotion keeps the epoch but changes the cuboids
        the cube path answers from; the estimate reads the installed
        cuboid's counts at once, with no query observed."""
        db, table, _cube, _rows = make_env()
        cube = RankingCube.build(table, block_size=12, cuboid_sets=[("a1",), ("a2",)])
        router = AdaptiveRouter.for_cube(cube, table)
        q = query(selections={"a1": 1, "a2": 2})
        before = router.decide(q).analytic["cube"]

        advisor = CubeAdvisor(cube, table, db.pool, min_observations=8)
        for _ in range(12):
            advisor.observe(q)
        report = advisor.advise_once()
        assert report.swapped and report.promoted
        assert frozenset({"a1", "a2"}) in cube.cuboids

        after = router.decide(q).analytic["cube"]
        assert after != before
        # the estimate after the promotion is what a fresh router prices
        fresh = AdaptiveRouter.for_cube(cube, table).decide(q)
        assert after == fresh.analytic["cube"]

    def test_a_repartition_changes_the_cube_estimate(self):
        """A re-partition installs a new grid and new stores: the next
        estimate walks their counts, with no query observed."""
        db, table, cube, _rows = make_env()
        router = AdaptiveRouter.for_cube(cube, table)
        q = query(selections={"a1": 1})
        before = router.decide(q).analytic["cube"]
        rng = random.Random(5)
        table.insert_rows([
            (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]),
             rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1))
            for _ in range(150)
        ])
        cube.refresh_delta(table)
        # delta tuples are merged in memory and priced at no page
        assert router.decide(q).analytic["cube"] == before
        grid = cube.grid
        assert repartition_cube(cube, table, table.pool).swapped
        assert cube.grid != grid
        assert router.decide(q).analytic["cube"] != before

    def test_uncoverable_query_estimates_inf_but_still_answers(self):
        """A cube materializing only {a1} cannot cover a2-queries: its
        estimate is inf and routing falls through to the baseline."""
        rows = make_rows(17, 200)
        db = Database(buffer_capacity=64)
        table = db.load_table("R", SCHEMA, rows)
        for name in SCHEMA.selection_names:
            table.create_secondary_index(name)
        cube = RankingCube.build(table, block_size=12, cuboid_sets=[("a1",)])
        router = AdaptiveRouter.for_cube(cube, table)
        q = query(k=5, selections={"a2": 1})
        got = [(r.score, r.tid) for r in router.execute(q).rows]
        decision = router.last_decision
        assert decision.analytic["cube"] == math.inf
        assert decision.path == "baseline"
        assert got == brute_force_topk(SCHEMA, rows, q)


class TestObservability:
    def test_counters_after_a_stream(self):
        db, table, cube, _rows = make_env()
        registry = MetricsRegistry()
        router = AdaptiveRouter.for_cube(cube, table, registry=registry)
        q = query()
        for _ in range(5):
            router.execute(q)
        assert registry.counter("route.queries").value == 5
        decisions = sum(
            value
            for name, labels, value in registry.counter_items()
            if name == "route.decision"
        )
        assert decisions == 5
        assert registry.counter("route.observed_pages").value > 0
        assert router.last_decision is not None
        assert router.last_decision.observed_io > 0


#: Sizes of the drifting replay: rows, appended rows, queries per phase,
#: a1/a2 and a3 cardinalities, block size, queries between advisor
#: re-plans.  The smoke size halves the low cardinality so phase A stays
#: cube-friendly against a now-cheap scan, and appends a larger share so
#: the drifted top bin clears the 2.0 depth-ratio threshold.
DRIFT_SMOKE = dict(
    num_tuples=5_000, append_tuples=1_500, phase_queries=(24, 16, 24),
    low_cardinality=4, high_cardinality=500, block_size=150, advise_interval=12,
)
DRIFT_FULL = dict(
    num_tuples=12_000, append_tuples=3_000, phase_queries=(60, 40, 60),
    low_cardinality=8, high_cardinality=1_000, block_size=100, advise_interval=20,
)


def replay_drifting_stream(
    scenario, *, num_tuples, append_tuples, phase_queries,
    low_cardinality, high_cardinality, block_size, advise_interval, seed=41,
    ratios=None,
):
    """Replay a three-phase drifting stream through one configuration.

    Phase A asks unselective ``{a1}`` / ``{a1,a2}`` queries (cube
    territory), phase B ultra-selective ``{a3}`` lookups (index
    territory), and phase C repeats A after a skewed append unbalances
    the grid.  ``scenario`` is ``"adaptive"`` (router over every path,
    advisor re-plans, drift-triggered re-partition) or a static path:
    ``"cube"`` or ``"baseline"``.  Costs are logical weighted
    pages, so the replay is deterministic.  Returns ``(weighted pages,
    pages, repartitions)``; every answer must equal the oracle.  Given a
    ``ratios`` list, the adaptive run also appends, per query, the cube
    path's estimate over the cost a cube executor observes for it.
    """
    schema = Schema.of(
        [
            selection_attr("a1", low_cardinality),
            selection_attr("a2", low_cardinality),
            selection_attr("a3", high_cardinality),
            ranking_attr("n1"),
            ranking_attr("n2"),
        ]
    )
    rng = random.Random(seed)
    rows = [
        (
            rng.randrange(low_cardinality),
            rng.randrange(low_cardinality),
            rng.randrange(high_cardinality),
            rng.random(),
            rng.random(),
        )
        for _ in range(num_tuples)
    ]
    db = Database(buffer_capacity=8_192)
    table = db.load_table("R", schema, rows)
    for name in schema.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(
        table, block_size=block_size, cuboid_sets=[(d,) for d in schema.selection_names]
    )
    phase_a, phase_b, phase_c = phase_queries
    stream = DriftingQueryStream(
        schema,
        [
            WorkloadPhase((("a1",), ("a1", "a2")), phase_a, k=10),
            WorkloadPhase((("a3",),), phase_b, k=5),
            WorkloadPhase((("a1",), ("a1", "a2")), phase_c, k=10),
        ],
        seed=seed + 101,
    )
    extra = shifted_rows(schema, append_tuples, seed=seed + 13)

    registry = MetricsRegistry()
    if scenario == "adaptive":
        router = AdaptiveRouter.for_cube(cube, table, registry=registry)
        advisor = CubeAdvisor(
            cube, table, table.pool,
            min_observations=min(16, advise_interval), registry=registry,
        )
        detector = DriftDetector(cube, threshold=2.0)
    elif scenario != "baseline":
        executor = RankingCubeExecutor(cube, table)
    weighted = pages = repartitions = 0
    for index, query in enumerate(stream):
        if index == phase_a + phase_b:
            # the drifted append lands identically in every scenario ...
            table.insert_rows(extra)
            rows.extend(extra)
            for name in list(table.secondary_indexes):
                table.secondary_indexes.pop(name)
                table.create_secondary_index(name)
            cube.refresh_delta(table)
            # ... but only the adaptive one may react
            if scenario == "adaptive" and detector.check().drifted:
                if repartition_cube(cube, table, table.pool, registry=registry).swapped:
                    repartitions += 1
        if scenario == "adaptive":
            if ratios is not None:
                observed = RankingCubeExecutor(cube, table).execute(query)
                estimate = estimate_cube_cost(cube, table, query).io_cost
                ratios.append(estimate / (RANDOM_READ_WEIGHT * observed.blocks_accessed))
            result = router.execute(query)
            cost = router.last_decision.observed_io
            advisor.observe(query)
            if (index + 1) % advise_interval == 0:
                advisor.advise_once()
        elif scenario == "baseline":
            baseline = BaselineExecutor(table)
            result = baseline.execute(query)
            scan = baseline.last_plan == "scan"
            weight = SEQ_READ_WEIGHT if scan else RANDOM_READ_WEIGHT
            cost = weight * result.blocks_accessed
        else:
            result = executor.execute(query)
            cost = RANDOM_READ_WEIGHT * result.blocks_accessed
        weighted += cost
        pages += result.blocks_accessed
        assert [(r.score, r.tid) for r in result.rows] == brute_force_topk(
            schema, rows, query
        ), f"{scenario}: query {index} diverged from the oracle"
    return weighted, pages, repartitions


class TestDriftingStream:
    @pytest.mark.parametrize(
        "size, expected",
        [
            (
                DRIFT_SMOKE,
                {"adaptive": (2200, 1111, 1), "cube": (2880, 288, 0),
                 "baseline": (3192, 3192, 0)},
            ),
            pytest.param(
                DRIFT_FULL,
                {"adaptive": (10850, 2048, 1), "cube": (13200, 1320, 0),
                 "baseline": (18359, 17396, 0)},
                marks=pytest.mark.slow,
            ),
        ],
        ids=["smoke", "full"],
    )
    def test_adaptive_beats_best_static(self, size, expected):
        """Over a drifting stream, routing + advising + re-partitioning
        costs strictly fewer weighted pages than the best single static
        path, the drifted append triggers one online re-partition, and
        every configuration answers exactly."""
        observed = {
            scenario: replay_drifting_stream(scenario, **size)
            for scenario in expected
        }
        assert observed == expected
        cost, _pages, repartitions = observed.pop("adaptive")
        assert cost < min(static for static, _pages, _swaps in observed.values())
        assert repartitions == 1

    @pytest.mark.parametrize(
        "size",
        [DRIFT_SMOKE, pytest.param(DRIFT_FULL, marks=pytest.mark.slow)],
        ids=["smoke", "full"],
    )
    def test_cube_estimate_tracks_the_observed_cost(self, size):
        """The count walk's estimate over the cube's observed cost, on
        every query of the adaptive replay (after promotions and the
        re-partition too), lies within [0.8, 1.3] from p10 to p90."""
        ratios = []
        replay_drifting_stream("adaptive", ratios=ratios, **size)
        p10, _p50, p90 = np.percentile(ratios, [10, 50, 90])
        assert 0.8 <= p10 and p90 <= 1.3
