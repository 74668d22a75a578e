"""Crash-consistency under randomized fault schedules.

The acceptance bar for the fault-injection layer: 100 seeded schedules of
build-query-crash-reopen, with zero silent wrong answers and zero
undetected page damage.  See ``tests/faults/harness.py`` for what one
schedule does.
"""

import pytest

from repro.bench.faultmatrix import DEFAULT_MATRIX_SEEDS, run_fault_matrix
from repro.core import QueryAbortedError
from repro.storage import PageCorruptionError, StorageError

from .harness import assert_schedule_consistent, run_schedule

pytestmark = pytest.mark.faults


class TestHundredSchedules:
    def test_100_randomized_schedules_never_silently_wrong(self):
        """The headline guarantee, over seeds 0..99.

        Every schedule must end every query in a correct answer or a typed
        ``StorageError`` subclass, and every post-crash page must be
        readable or detectably invalid.
        """
        outcomes = [assert_schedule_consistent(seed) for seed in range(100)]
        assert all(o.consistent for o in outcomes)
        # the storm must actually have hit something, or this suite tests
        # nothing: across 100 schedules we expect faults, retries, torn
        # pages, and some typed post-crash aborts
        assert sum(o.faults_injected for o in outcomes) > 50
        assert sum(o.torn_pages for o in outcomes) > 100
        assert sum(o.post_crash_aborted for o in outcomes) > 0
        # and retries must have *saved* queries too, not just aborted them
        assert sum(o.queries_ok for o in outcomes) > 0
        assert sum(o.post_crash_ok for o in outcomes) > 0

    def test_schedules_are_deterministic(self):
        a = run_schedule(7)
        b = run_schedule(7)
        assert (a.queries_ok, a.queries_aborted, a.post_crash_ok) == (
            b.queries_ok,
            b.queries_aborted,
            b.post_crash_ok,
        )
        assert a.faults_injected == b.faults_injected
        assert a.retried_reads == b.retried_reads


class TestFaultMatrix:
    def test_default_matrix_is_consistent(self):
        result = run_fault_matrix()
        assert result.consistent
        assert [o.seed for o in result.outcomes] == list(DEFAULT_MATRIX_SEEDS)

    def test_format_table_mentions_every_seed(self):
        result = run_fault_matrix()
        table = result.format_table()
        for seed in DEFAULT_MATRIX_SEEDS:
            assert str(seed) in table
        assert "consistent=yes" in table


def small_cube():
    """A 120-row cube on 512-byte pages with one query over it."""
    import random

    from repro.core import RankingCube, RankingCubeExecutor
    from repro.ranking import LinearFunction
    from repro.relational import (
        Database,
        Schema,
        TopKQuery,
        ranking_attr,
        selection_attr,
    )

    schema = Schema.of(
        [selection_attr("a1", 3), ranking_attr("n1"), ranking_attr("n2")]
    )
    rng = random.Random(5)
    rows = [(rng.randrange(3), rng.random(), rng.random()) for _ in range(120)]
    db = Database(page_size=512)
    table = db.load_table("R", schema, rows)
    cube = RankingCube.build(table, block_size=6)
    query = TopKQuery(5, {"a1": 1}, LinearFunction(["n1", "n2"], [1.0, 1.0]))
    return db, cube, RankingCubeExecutor(cube, table), query


class TestTypedFailures:
    def test_aborted_query_carries_partial_results(self):
        """A query over persistently damaged pages aborts typed, with the
        partial top-k it scored before the fault attached."""
        db, _cube, executor, query = small_cube()

        # sanity: works before damage
        assert len(executor.execute(query).rows) == 5

        for page_id in range(db.device.num_pages):
            db.device.corrupt(page_id, offset=page_id % db.device.page_size)
        db.pool.crash()  # drop clean frames so reads face the damage

        with pytest.raises(QueryAbortedError) as excinfo:
            executor.execute(query)
        err = excinfo.value
        assert isinstance(err, StorageError)
        assert isinstance(err.cause, PageCorruptionError)
        assert err.cause.page_id is not None
        assert err.cause.expected_checksum != err.cause.actual_checksum
        assert isinstance(err.partial_rows, list)  # may be empty: typed, not silent

    def test_damaged_directory_header_aborts_typed_with_or_without_checksums(self):
        """A flipped type byte in a cuboid directory's root node ends the
        query the same way whether the device's CRC catches it (bit rot)
        or the image checksums clean (a bad write): the B+-tree's own
        header check is the second net, and both name the page."""
        outcomes = []
        for checksummed in (False, True):
            db, cube, executor, query = small_cube()
            reference = executor.execute(query).rows
            db.pool.flush()

            root_id = cube.cuboid(("a1",))._store.directory._root_id
            if checksummed:
                image = bytearray(db.device.read(root_id))
                image[0] ^= 0xFF
                db.device.write(root_id, bytes(image))
            else:
                db.device.corrupt(root_id, offset=0)
            db.pool.crash()

            with pytest.raises(QueryAbortedError) as excinfo:
                executor.execute(query)
            cause = excinfo.value.cause
            assert isinstance(cause, PageCorruptionError)
            assert cause.page_id == root_id
            assert (cause.expected_checksum is None) == checksummed
            outcomes.append((type(cause), cause.page_id, len(reference)))
        assert outcomes[0] == outcomes[1]

    def test_short_record_page_aborts_typed(self):
        """A base-table page whose header claims fewer records than the
        directory places on it — checksum valid, so a writer bug rather
        than bit rot — ends the query typed and naming the page, instead
        of scoring the next block's tuples as this block's."""
        db, cube, executor, query = small_cube()
        assert len(executor.execute(query).rows) == 5
        db.pool.flush()

        page_ids = cube.base_table._store._page_ids
        for page_id in page_ids:
            image = db.device.read(page_id)
            db.device.patch(
                page_id, image[:2] + (0).to_bytes(2, "little"), update_checksum=True
            )
        db.pool.crash()

        with pytest.raises(QueryAbortedError) as excinfo:
            executor.execute(query)
        cause = excinfo.value.cause
        assert isinstance(cause, PageCorruptionError)
        assert "short page" in str(cause)
        assert cause.page_id in page_ids
        assert cause.expected_checksum is None
