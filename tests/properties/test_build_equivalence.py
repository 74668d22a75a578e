"""Property tests: parallel cube construction equals serial, byte for byte.

The partitioned builder's whole contract is that ``workers`` changes
wall-clock only: for any seeded dataset, building the same cube at 1, 2,
and 4 workers must leave *identical device images* (SHA-256 over every
page) and answer every query identically.  The fingerprint check is the
strong form — it catches reordered chain records, drifted page
allocation, or float coercion differences that answer-level comparison
could mask — and it holds because sharding is by contiguous tid range,
partials merge in shard order (== scan order), and all page I/O stays in
the parent process in the serial build's exact sequence.

These run in the default suite (no marker): they are the regression gate
for the canonical-layout guarantee.
"""

import random

import pytest

from repro.core import RankingCube, RankingCubeExecutor
from repro.core.fragments import FragmentedRankingCube
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr
from repro.workloads.queries import QueryGenerator, QuerySpec
from repro.workloads.synthetic import SyntheticSpec, generate

SEEDS = (3, 19, 57)
WORKER_COUNTS = (1, 2, 4)

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4), selection_attr("a3", 3)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


def make_rows(rng, count=150):
    return [
        (
            rng.randrange(3),
            rng.randrange(4),
            rng.randrange(3),
            rng.random(),
            rng.random(),
        )
        for _ in range(count)
    ]


def built_image(rows, workers, block_size=8, compress=False):
    """Build on a fresh device; return (fingerprint, cube, table, db)."""
    db = Database(buffer_capacity=512)
    table = db.load_table("R", SCHEMA, rows)
    cube = RankingCube.build(
        table, block_size=block_size, workers=workers, compress=compress
    )
    db.pool.flush()
    return db.device.fingerprint(), cube, table, db


def make_queries(rng, count=12):
    queries = []
    for _ in range(count):
        selections = {}
        if rng.random() < 0.8:
            selections["a1"] = rng.randrange(3)
        if rng.random() < 0.5:
            selections["a2"] = rng.randrange(4)
        fn = LinearFunction(["n1", "n2"], [0.1 + rng.random(), 0.1 + rng.random()])
        queries.append(TopKQuery(rng.randint(1, 8), selections, fn))
    return queries


def signatures(executor, queries):
    return [
        [(row.tid, round(row.score, 9)) for row in executor.execute(q).rows]
        for q in queries
    ]


@pytest.fixture(params=SEEDS)
def seed(request):
    return request.param


class TestByteIdentity:
    def test_worker_counts_produce_identical_device_images(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng)
        fingerprints = {
            workers: built_image(rows, workers)[0] for workers in WORKER_COUNTS
        }
        assert len(set(fingerprints.values())) == 1, (
            f"seed {seed}: device images diverge across worker counts: "
            f"{fingerprints}"
        )

    def test_compressed_cuboids_also_identical(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng, count=90)
        fps = {
            w: built_image(rows, w, compress=True)[0] for w in WORKER_COUNTS
        }
        assert len(set(fps.values())) == 1

    def test_worker_count_beyond_rows_is_safe(self):
        rng = random.Random(0)
        rows = make_rows(rng, count=5)
        fps = {w: built_image(rows, w)[0] for w in (1, 8)}
        assert len(set(fps.values())) == 1


    @pytest.mark.parametrize("workers", [1, 2])
    def test_synthetic_image_is_pinned(self, workers):
        """2,500 synthetic rows at block size 30: load plus build writes
        115 pages and leaves this exact image, at any worker count.  A
        page-format change moves both: re-bless them on purpose."""
        dataset = generate(SyntheticSpec(num_tuples=2_500, cardinality=8, seed=23))
        db = Database(buffer_capacity=8192)
        table = dataset.load_into(db)
        RankingCube.build(table, block_size=30, workers=workers)
        db.pool.flush()
        assert db.device.stats.writes == 115
        assert db.device.fingerprint() == (
            "d8dc8ef74730a02e4a34a04960e5ec95e61a3d7ea404fa83d9efc12f173b823c"
        )


class TestAnswerIdentity:
    def test_answers_identical_across_worker_counts(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng)
        queries = make_queries(random.Random(seed + 1))
        reference = None
        for workers in WORKER_COUNTS:
            _fp, cube, table, _db = built_image(rows, workers)
            got = signatures(RankingCubeExecutor(cube, table), queries)
            if reference is None:
                reference = got
            assert got == reference, f"answers diverge at workers={workers}"

    def test_generated_workload_matches_serial(self, seed):
        """The synthetic generator + query generator path, end to end."""
        dataset = generate(
            SyntheticSpec(
                num_selection_dims=3,
                num_ranking_dims=2,
                num_tuples=400,
                cardinality=5,
                seed=seed,
            )
        )
        queries = QueryGenerator(
            dataset.schema, QuerySpec(k=5, num_selections=2, seed=seed)
        ).batch(10)
        sigs = []
        for workers in (1, 4):
            db = Database(buffer_capacity=512)
            table = dataset.load_into(db)
            cube = RankingCube.build(table, block_size=16, workers=workers)
            sigs.append(signatures(RankingCubeExecutor(cube, table), queries))
        assert sigs[0] == sigs[1]


class TestFragmentsParallel:
    def test_fragment_family_identical_across_workers(self, seed):
        rng = random.Random(seed)
        rows = make_rows(rng)
        fps = {}
        for workers in (1, 4):
            db = Database(buffer_capacity=512)
            table = db.load_table("R", SCHEMA, rows)
            FragmentedRankingCube.build_fragments(
                table, fragment_size=2, block_size=8, workers=workers
            )
            db.pool.flush()
            fps[workers] = db.device.fingerprint()
        assert len(set(fps.values())) == 1
