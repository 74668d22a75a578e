"""Build image properties: the pinned device image of a synthetic build,
and cuboid contents that do not depend on the cuboid encoding.

A chain store's on-page bytes depend only on the map ``key -> ordered
record list`` (the store sorts groups by key), and ``group_rows`` keeps
each key's records in scan order, so a build's image is a function of
its rows.  The pinned fingerprint is the strong form of that check: it
catches reordered chain records, drifted page allocation, or float
coercion differences that answer-level comparison could mask.

These run in the default suite (no marker): they are the regression gate
for the canonical-layout guarantee.
"""

import random

import pytest

from repro.core import RankingCube
from repro.relational import Database, Schema, ranking_attr, selection_attr
from repro.workloads.synthetic import SyntheticSpec, generate

SEEDS = (3, 19, 57)

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


def built_cube(rows, block_size=8, compress=False):
    db = Database(buffer_capacity=512)
    table = db.load_table("R", SCHEMA, rows)
    return RankingCube.build(table, block_size=block_size, compress=compress)


@pytest.fixture(params=SEEDS)
def seed(request):
    return request.param


class TestByteIdentity:
    def test_compressed_cuboids_also_identical(self, seed):
        """The gap-coded cuboids hold exactly the plain cuboids' cells,
        pair for pair and in the same order."""
        rng = random.Random(seed)
        rows = make_rows(rng, count=90)
        plain = built_cube(rows)
        packed = built_cube(rows, compress=True)
        assert set(packed.cuboids) == set(plain.cuboids)
        for key, cuboid in plain.cuboids.items():
            assert list(packed.cuboids[key].cells()) == list(cuboid.cells())

    def test_synthetic_image_is_pinned(self):
        """2,500 synthetic rows at block size 30: load plus build writes
        115 pages and leaves this exact image.  A page-format change
        moves both: re-bless them on purpose."""
        dataset = generate(SyntheticSpec(num_tuples=2_500, cardinality=8, seed=23))
        db = Database(buffer_capacity=8192)
        table = dataset.load_into(db)
        RankingCube.build(table, block_size=30)
        db.pool.flush()
        assert db.device.stats.writes == 115
        assert db.device.fingerprint() == (
            "d8dc8ef74730a02e4a34a04960e5ec95e61a3d7ea404fa83d9efc12f173b823c"
        )
