"""Build image property: the pinned device image of a synthetic build.

A chain store's on-page bytes depend only on the map ``key -> ordered
record list`` (the store sorts groups by key), and ``group_rows`` keeps
each key's records in scan order, so a build's image is a function of
its rows.  The pinned fingerprint is the strong form of that check: it
catches reordered chain records, drifted page allocation, or float
coercion differences that answer-level comparison could mask.

This runs in the default suite (no marker): it is the regression gate
for the canonical-layout guarantee.
"""

from repro.core import RankingCube
from repro.relational import Database
from repro.workloads.synthetic import SyntheticSpec, generate


class TestByteIdentity:
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
