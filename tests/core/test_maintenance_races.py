"""Maintainers racing one cube: the loser of any race aborts.

Compaction, drift re-partition and the cuboid advisor each build fresh
stores from a snapshot, flush the pool, then ``RankingCube.install`` them.
Here one maintainer (the inner) runs to completion inside another's (the
outer's) pre-swap ``pool.flush()``, after a few more rows were appended.
The outer must change nothing and report ``aborted``: the inner's change
stays visible (a promoted cuboid survives, a new grid keeps its own
stores), no row is lost, the ones appended mid-race included, and every
answer equals the brute-force oracle.
"""

import random
from pathlib import Path

import pytest

from repro.core import CubeCompactor, RankingCube, RankingCubeExecutor
from repro.ingest import StreamIngestor
from repro.persist import Workspace
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.route import CubeAdvisor, repartition_cube
from repro.workloads.oracle import brute_force_topk

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)
HOT = frozenset({"a1", "a2"})
OPS = ("compact", "repartition", "advise")


def make_rows(rng, count, lo=0.0, hi=1.0):
    return [
        (
            rng.randrange(CARDS[0]),
            rng.randrange(CARDS[1]),
            rng.uniform(lo, hi),
            rng.uniform(lo, hi),
        )
        for _ in range(count)
    ]


class Env:
    """300 rows on singleton cuboids, then 150 skewed rows in the delta."""

    def __init__(self, seed=29):
        self.rng = random.Random(seed)
        self.rows = make_rows(self.rng, 300)
        self.db = Database(buffer_capacity=128)
        self.table = self.db.load_table("R", SCHEMA, self.rows)
        self.cube = RankingCube.build(
            self.table, block_size=12, cuboid_sets=[("a1",), ("a2",)]
        )
        self.append(make_rows(self.rng, 150, lo=0.9, hi=1.0))

    def append(self, rows):
        self.table.insert_rows(rows)
        assert self.cube.refresh_delta(self.table) == len(rows)
        self.rows += rows

    def run(self, op):
        if op == "compact":
            return CubeCompactor(self.cube, self.db.pool).compact_once()
        if op == "repartition":
            return repartition_cube(self.cube, self.table, self.db.pool)
        advisor = CubeAdvisor(self.cube, self.table, self.db.pool, min_observations=4)
        for _ in range(8):
            advisor.observe(query({"a1": 1, "a2": 2}))
        return advisor.advise_once()

    def assert_answers_exact(self):
        executor = RankingCubeExecutor(self.cube, self.table)
        for selections in ({"a1": 1, "a2": 2}, {"a1": 0}, {"a2": 3}, {}):
            for k in (5, 12):
                q = query(selections, k)
                got = [(r.score, r.tid) for r in executor.execute(q).rows]
                assert got == brute_force_topk(SCHEMA, self.rows, q), q


def query(selections, k=5):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


def race(env, monkeypatch, inner, appended=20):
    """Arm the pool so its next flush first appends ``appended`` rows and
    runs ``inner`` to completion; returns the inner report and the cube's
    (grid, base table, cuboids) right after it."""
    flush = env.db.pool.flush
    seen = {}

    def racing_flush():
        monkeypatch.setattr(env.db.pool, "flush", flush)
        env.append(make_rows(env.rng, appended, lo=0.2, hi=0.8))
        seen["report"] = env.run(inner)
        seen["state"] = (env.cube.grid, env.cube.base_table, dict(env.cube.cuboids))
        flush()

    monkeypatch.setattr(env.db.pool, "flush", racing_flush)
    return seen


@pytest.mark.parametrize("inner", OPS)
@pytest.mark.parametrize("outer", OPS)
def test_the_loser_of_a_race_aborts(outer, inner, monkeypatch):
    env = Env()
    seen = race(env, monkeypatch, inner)
    report = env.run(outer)

    assert seen["report"].swapped
    # every row is live, the 20 appended mid-race too
    env.assert_answers_exact()
    if inner == "advise":
        assert HOT in env.cube.cuboids
    grid, base_table, cuboids = seen["state"]
    assert env.cube.grid is grid
    assert env.cube.base_table is base_table
    assert env.cube.cuboids == cuboids
    assert not report.swapped and report.aborted


def test_an_aborted_ingest_compaction_keeps_its_tier_runs(tmp_path, monkeypatch):
    env = Env()
    workspace = Workspace(db=env.db, cubes={"R": env.cube})
    ingestor = StreamIngestor(
        workspace, "R", Path(tmp_path) / "r.wal", compact_threshold=10_000
    )
    try:
        for _ in range(3):
            batch = make_rows(env.rng, 10, lo=0.2, hi=0.8)
            ingestor.append(batch)
            env.rows += batch
        runs = ingestor.pending_rows
        delta = env.cube.delta_size
        # an advisor promotion lands inside the compaction's flush
        seen = race(env, monkeypatch, "advise", appended=0)

        report = ingestor.compact()
        assert seen["report"].swapped and HOT in env.cube.cuboids
        assert report.aborted and not report.swapped
        assert ingestor.pending_rows == runs == 30
        assert env.cube.delta_size == delta

        retry = ingestor.compact()
        assert retry.swapped and retry.absorbed + retry.residual == delta
        assert ingestor.pending_rows == 0
        assert HOT in env.cube.cuboids
        env.assert_answers_exact()
    finally:
        ingestor.close()
