"""Tests for incremental cube maintenance via the delta store."""

import random

import pytest

from repro.core import FragmentedRankingCube, RankingCube, RankingCubeExecutor
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr


def make_env(num_rows=800, seed=91):
    schema = Schema.of(
        [selection_attr("a1", 4), selection_attr("a2", 3)]
        + [ranking_attr("n1"), ranking_attr("n2")]
    )
    rng = random.Random(seed)
    rows = [
        (rng.randrange(4), rng.randrange(3), rng.random(), rng.random())
        for _ in range(num_rows)
    ]
    db = Database()
    table = db.load_table("R", schema, rows)
    cube = RankingCube.build(table, block_size=20)
    return db, table, rows, schema, cube, RankingCubeExecutor(cube, table)


from repro.workloads.oracle import brute_force_topk as brute_force


class TestRefreshDelta:
    def test_watermark_starts_at_build_size(self):
        _db, table, rows, _schema, cube, _ex = make_env()
        assert cube.watermark == len(rows)
        assert cube.delta_size == 0

    def test_refresh_absorbs_new_tuples(self):
        _db, table, rows, _schema, cube, _ex = make_env()
        table.insert_rows([(0, 0, 0.5, 0.5), (1, 2, 0.1, 0.1)])
        absorbed = cube.refresh_delta(table)
        assert absorbed == 2
        assert cube.delta_size == 2
        assert cube.watermark == len(rows) + 2

    def test_refresh_is_idempotent(self):
        _db, table, _rows, _schema, cube, _ex = make_env()
        table.insert_rows([(0, 0, 0.5, 0.5)])
        assert cube.refresh_delta(table) == 1
        assert cube.refresh_delta(table) == 0
        assert cube.delta_size == 1

    def test_needs_rebuild_threshold(self):
        _db, table, rows, _schema, cube, _ex = make_env(num_rows=100)
        assert not cube.needs_rebuild()
        table.insert_rows([(0, 0, 0.5, 0.5)] * 20)
        cube.refresh_delta(table)
        assert cube.needs_rebuild(max_delta_fraction=0.1)
        assert not cube.needs_rebuild(max_delta_fraction=0.5)


class TestQueriesSeeDelta:
    def test_new_best_tuple_wins(self):
        _db, table, rows, schema, cube, executor = make_env()
        # insert a tuple that dominates everything for a1=2, a2=1
        table.insert_rows([(2, 1, 0.0, 0.0)])
        cube.refresh_delta(table)
        new_tid = len(rows)
        query = TopKQuery(1, {"a1": 2, "a2": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        assert result.tids == [new_tid]
        assert result.scores == [pytest.approx(0.0)]

    def test_non_matching_delta_ignored(self):
        _db, table, rows, schema, cube, executor = make_env()
        table.insert_rows([(3, 2, 0.0, 0.0)])
        cube.refresh_delta(table)
        query = TopKQuery(3, {"a1": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        expected = brute_force(schema, rows, query)
        assert [r.tid for r in result.rows] == [t for _s, t in expected]

    def test_merged_answer_matches_brute_force(self):
        _db, table, rows, schema, cube, executor = make_env()
        rng = random.Random(5)
        extra = [
            (rng.randrange(4), rng.randrange(3), rng.random(), rng.random())
            for _ in range(60)
        ]
        table.insert_rows(extra)
        cube.refresh_delta(table)
        all_rows = rows + extra
        for _ in range(8):
            selections = {"a1": rng.randrange(4)}
            query = TopKQuery(
                7, selections, LinearFunction(["n1", "n2"], [1, rng.uniform(0.2, 2)])
            )
            result = executor.execute(query)
            expected = brute_force(schema, all_rows, query)
            assert [r.score for r in result.rows] == pytest.approx(
                [s for s, _t in expected]
            )

    def test_no_selection_query_sees_delta(self):
        _db, table, rows, schema, cube, executor = make_env()
        table.insert_rows([(0, 0, -1.0, -1.0)])  # outside the grid: clamped bid
        cube.refresh_delta(table)
        query = TopKQuery(1, {}, LinearFunction(["n1", "n2"], [1, 1]))
        result = executor.execute(query)
        assert result.tids == [len(rows)]

    def test_delta_counts_toward_tuples_examined(self):
        _db, table, rows, _schema, cube, executor = make_env()
        table.insert_rows([(0, 0, 0.9, 0.9)] * 5)
        cube.refresh_delta(table)
        query = TopKQuery(2, {"a1": 0, "a2": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        with_delta = executor.execute(query).tuples_examined
        assert with_delta >= 5

    def test_rebuild_folds_delta(self):
        db, table, rows, schema, cube, _ex = make_env()
        table.insert_rows([(2, 1, 0.0, 0.0)])
        rebuilt = RankingCube.build(table, block_size=20)
        assert rebuilt.delta_size == 0
        assert rebuilt.watermark == table.num_rows
        executor = RankingCubeExecutor(rebuilt, table)
        query = TopKQuery(1, {"a1": 2, "a2": 1}, LinearFunction(["n1", "n2"], [1, 1]))
        assert executor.execute(query).scores == [pytest.approx(0.0)]


class TestFragmentDelta:
    def test_fragmented_cube_supports_delta(self):
        schema = Schema.of(
            [selection_attr(f"a{i}", 3) for i in range(1, 5)]
            + [ranking_attr("n1"), ranking_attr("n2")]
        )
        rng = random.Random(17)
        rows = [
            tuple(rng.randrange(3) for _ in range(4)) + (rng.random(), rng.random())
            for _ in range(400)
        ]
        db = Database()
        table = db.load_table("R", schema, rows)
        cube = FragmentedRankingCube.build_fragments(table, fragment_size=2)
        executor = RankingCubeExecutor(cube, table)
        table.insert_rows([(1, 2, 0, 1, 0.0, 0.0)])
        cube.refresh_delta(table)
        query = TopKQuery(
            1, {"a1": 1, "a3": 0}, LinearFunction(["n1", "n2"], [1, 1])
        )
        assert executor.execute(query).tids == [400]


# ----------------------------------------------------------------------
# the cell-indexed delta store
# ----------------------------------------------------------------------
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CubeCompactor
from repro.index.bptree import BPlusTree, BPlusTreeError
from repro.persist import Workspace, load_workspace
from repro.route.drift import repartition_cube
from repro.storage.heap import HeapFile
from repro.storage.pages import RecordPage


def brute_matches(snapshot, selections):
    """The delta merge written out: filter the pinned entries in order."""
    return [
        (tid, rank)
        for tid, sel, rank in snapshot.delta
        if all(sel.get(d) == v for d, v in selections.items())
    ]


#: selection values reach past both domains, so some cells hold nothing
_selection = st.dictionaries(st.sampled_from(["a1", "a2"]), st.integers(-1, 5))
_coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([-0.5, 1.5]))
_row = st.tuples(st.integers(0, 3), st.integers(0, 2), _coord, _coord)
_op = st.one_of(
    st.tuples(st.just("append"), st.lists(_row, min_size=1, max_size=12)),
    st.tuples(st.sampled_from(["snapshot", "compact", "repartition"])),
)


class TestIndexedDeltaMatches:
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        ops=st.lists(_op, min_size=1, max_size=10),
        selections=st.lists(_selection, min_size=1, max_size=6),
    )
    def test_matches_equal_a_filter_of_the_pinned_entries(self, ops, selections):
        """Any interleaving of append + refresh, snapshot, compaction and
        drift repartition: every snapshot's indexed answer is the brute
        filter of its own entries, then and after everything that follows."""
        db, table, _rows, _schema, cube, _ex = make_env(num_rows=150)
        selections = [{}] + selections
        compactor = CubeCompactor(cube, db.pool)
        pinned = []
        for op in ops:
            if op[0] == "append":
                table.insert_rows(op[1])
                cube.refresh_delta(table)
            elif op[0] == "compact":
                compactor.compact_once()
            elif op[0] == "repartition":
                repartition_cube(cube, table, db.pool)
            snapshot = cube.snapshot()
            answers = [brute_matches(snapshot, sel) for sel in selections]
            assert [snapshot.delta_matches(sel) for sel in selections] == answers
            pinned.append((snapshot, answers))
        for snapshot, answers in pinned:
            assert [snapshot.delta_matches(sel) for sel in selections] == answers

    def test_a_snapshot_keeps_its_answer_across_appends_and_swaps(self):
        db, table, rows, _schema, cube, _ex = make_env()
        table.insert_rows([(1, 2, 0.3, 0.4), (1, 0, 0.2, 0.2), (3, 2, 1.5, 0.1)])
        cube.refresh_delta(table)
        before = cube.snapshot()
        cells = [{}, {"a1": 1}, {"a1": 1, "a2": 2}, {"a2": 2}, {"a1": 0}]
        expected = [before.delta_matches(sel) for sel in cells]
        assert expected[2] == [(len(rows), {"n1": 0.3, "n2": 0.4})]

        table.insert_rows([(1, 2, 0.9, 0.9)] * 4)
        cube.refresh_delta(table)
        assert [before.delta_matches(sel) for sel in cells] == expected
        CubeCompactor(cube, db.pool).compact_once()
        assert cube.delta_size == 1  # the out-of-grid row stays residual
        assert [before.delta_matches(sel) for sel in cells] == expected
        repartition_cube(cube, table, db.pool)
        assert cube.delta_size == 0
        assert [before.delta_matches(sel) for sel in cells] == expected
        assert cube.snapshot().delta_matches({"a1": 1}) == []

    def test_a_reloaded_cube_answers_alike_and_keeps_indexing(self, tmp_path):
        db, table, _rows, _schema, cube, _ex = make_env()
        rng = random.Random(23)
        extra = [(rng.randrange(4), rng.randrange(3), rng.random(), rng.random())
                 for _ in range(40)]
        table.insert_rows(extra)
        cube.refresh_delta(table)
        cells = [{}] + [{"a1": a} for a in range(5)] + [
            {"a1": a, "a2": b} for a in range(4) for b in range(3)
        ]
        # indexes exist before the save; the snapshot carries none of them
        expected = [cube.snapshot().delta_matches(sel) for sel in cells]
        workspace = Workspace(db=db)
        workspace.add_cube("R", cube)
        workspace.save(tmp_path / "delta.rcube")
        restored = load_workspace(tmp_path / "delta.rcube")
        loaded, loaded_table = restored.cube("R"), restored.db.table("R")
        assert [loaded.snapshot().delta_matches(sel) for sel in cells] == expected

        more = [(2, 1, 0.5, 0.5), (0, 0, 0.1, 0.9)]
        for target, target_table in ((cube, table), (loaded, loaded_table)):
            target_table.insert_rows(more)
            target.refresh_delta(target_table)
        for sel in cells:
            snapshot = loaded.snapshot()
            assert snapshot.delta_matches(sel) == cube.snapshot().delta_matches(sel)
            assert snapshot.delta_matches(sel) == brute_matches(snapshot, sel)


class TestAppendReads:
    def test_an_append_decodes_each_heap_page_once(self, monkeypatch):
        _db, table, _rows, _schema, cube, _ex = make_env()
        per_page = table.heap.records_per_page
        # start the measured append 50 rows before a page boundary
        filler = (-table.num_rows - 50) % per_page
        table.insert_rows([(0, 0, 0.5, 0.5)] * filler)
        cube.refresh_delta(table)
        first = table.num_rows
        table.insert_rows([(1, 1, 0.25, 0.75)] * 100)
        pages = len({tid // per_page for tid in range(first, first + 100)})
        assert pages >= 2

        decodes = []
        decode = RecordPage.from_bytes.__func__

        def counting(cls, *args, **kwargs):
            decodes.append(args)
            return decode(cls, *args, **kwargs)

        monkeypatch.setattr(RecordPage, "from_bytes", classmethod(counting))
        assert cube.refresh_delta(table) == 100
        assert len(decodes) <= pages
        assert [tid for tid, _s, _r in cube.snapshot().delta][-100:] == list(
            range(first, first + 100)
        )

    def test_concurrent_refreshes_absorb_each_row_once(self, monkeypatch):
        """Two refreshes racing over one appended range: both read the
        watermark, meet inside the heap read, and only one may keep rows."""
        _db, table, rows, _schema, cube, _ex = make_env()
        table.insert_rows([(0, 0, 0.5, 0.5)] * 5)
        barrier = threading.Barrier(2, timeout=10)
        arrived = set()
        load_page = HeapFile._load_page

        def meeting(heap, page_index):
            if threading.get_ident() not in arrived:
                arrived.add(threading.get_ident())
                barrier.wait()
            return load_page(heap, page_index)

        monkeypatch.setattr(HeapFile, "_load_page", meeting)
        absorbed = []
        threads = [
            threading.Thread(target=lambda: absorbed.append(cube.refresh_delta(table)))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(absorbed) == [0, 5]
        assert cube.delta_size == 5
        assert [tid for tid, _s, _r in cube.snapshot().delta] == list(
            range(len(rows), len(rows) + 5)
        )


class TestIntKeyBulkLoad:
    @pytest.mark.parametrize("bad", [float("nan"), 2.5, 1 << 63])
    def test_a_key_outside_the_int_format_is_rejected_unwritten(self, bad):
        db = Database()
        tree = BPlusTree(db.pool)
        pages = db.device.num_pages
        with pytest.raises(BPlusTreeError):
            tree.bulk_load([((0, 1), 10), ((1, bad), 11), ((2, 3), 12)])
        assert len(tree) == 0 and tree.get((0, 1)) is None
        assert db.device.num_pages == pages
