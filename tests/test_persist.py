"""Tests for workspace persistence."""

import pickle

import pytest

from repro.core import RankingCube, RankingCubeExecutor, estimate_cube_cost
from repro.persist import FORMAT_VERSION, PersistError, Workspace, load_workspace, save_workspace
from repro.ranking import LinearFunction
from repro.relational import Database, TopKQuery
from repro.workloads import QueryGenerator, QuerySpec, SyntheticSpec, generate


@pytest.fixture()
def workspace():
    dataset = generate(SyntheticSpec(num_tuples=1500, seed=19))
    db = Database()
    table = dataset.load_into(db)
    cube = RankingCube.build(table, block_size=20)
    ws = Workspace(db=db)
    ws.add_cube("R", cube)
    return dataset, ws


class TestRoundtrip:
    def test_save_load_answers_identically(self, workspace, tmp_path):
        dataset, ws = workspace
        path = tmp_path / "snapshot.rcube"
        written = ws.save(path)
        assert written == path.stat().st_size

        restored = load_workspace(path)
        table = restored.db.table("R")
        executor = RankingCubeExecutor(restored.cube("R"), table)
        original = RankingCubeExecutor(ws.cube("R"), ws.db.table("R"))
        gen = QueryGenerator(dataset.schema, QuerySpec(k=5, seed=3))
        for query in gen.batch(5):
            a = original.execute(query)
            b = executor.execute(query)
            assert [(r.tid, round(r.score, 9)) for r in a.rows] == [
                (r.tid, round(r.score, 9)) for r in b.rows
            ]

    def test_delta_store_survives(self, workspace, tmp_path):
        dataset, ws = workspace
        table = ws.db.table("R")
        table.insert_rows([(0, 0, 0, 0.0, 0.0)])
        ws.cube("R").refresh_delta(table)
        path = tmp_path / "s.rcube"
        ws.save(path)
        restored = load_workspace(path)
        assert restored.cube("R").delta_size == 1
        executor = RankingCubeExecutor(restored.cube("R"), restored.db.table("R"))
        query = TopKQuery(1, {"a1": 0, "a2": 0}, LinearFunction(["n1", "n2"], [1, 1]))
        assert executor.execute(query).scores == [pytest.approx(0.0)]

    def test_a_reloaded_cube_prices_queries_identically(self, workspace, tmp_path):
        """The per-key record counts the cost model walks pickle with
        their stores: a reloaded cube holds the same counts and prices
        every query to the same float."""
        dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        restored = load_workspace(path)
        cube, again = ws.cube("R"), restored.cube("R")
        assert again.base_table.counts == cube.base_table.counts
        for key, cuboid in cube.cuboids.items():
            assert again.cuboids[key].counts == cuboid.counts
        table, reloaded = ws.db.table("R"), restored.db.table("R")
        gen = QueryGenerator(dataset.schema, QuerySpec(k=10, seed=5))
        for query in gen.batch(6):
            assert estimate_cube_cost(again, reloaded, query) == estimate_cube_cost(
                cube, table, query
            )

    def test_save_workspace_helper(self, workspace, tmp_path):
        _dataset, ws = workspace
        path = tmp_path / "h.rcube"
        save_workspace(ws.db, ws.cubes, path)
        assert load_workspace(path).db.table_names() == ["R"]


class TestValidation:
    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"definitely not a snapshot")
        with pytest.raises(PersistError, match="not a ranking-cube"):
            load_workspace(path)

    def test_truncated_file_rejected(self, workspace, tmp_path):
        _dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PersistError, match="truncated"):
            load_workspace(path)

    def test_corrupted_payload_rejected(self, workspace, tmp_path):
        _dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(PersistError, match="checksum"):
            load_workspace(path)

    def test_version_mismatch_rejected(self, workspace, tmp_path):
        _dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        data = bytearray(path.read_bytes())
        data[8] = FORMAT_VERSION + 1  # little-endian version field
        path.write_bytes(bytes(data))
        with pytest.raises(PersistError, match="format"):
            load_workspace(path)

    def test_v1_snapshot_rejected(self, workspace, tmp_path):
        """v1 devices hold pickled B+-tree nodes; the struct-page tree must
        never be pointed at one, so the gate refuses them by version."""
        assert FORMAT_VERSION >= 2
        _dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        data = bytearray(path.read_bytes())
        data[8:12] = (1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(PersistError, match="format v1 is not supported"):
            load_workspace(path)

    def test_non_workspace_pickle_rejected(self, tmp_path):
        import hashlib

        payload = pickle.dumps({"not": "a workspace"})
        header = (
            b"RCUBEWS\n"
            + FORMAT_VERSION.to_bytes(4, "little")
            + len(payload).to_bytes(8, "little")
            + hashlib.sha256(payload).digest()
        )
        path = tmp_path / "s.rcube"
        path.write_bytes(header + payload)
        with pytest.raises(PersistError, match="not a Workspace"):
            load_workspace(path)

    @pytest.mark.parametrize("missing", [
        b"crepro.core.compressed\nCompressedChainStore\n.",
        b"crepro.core.cuboid\nCompressedChainStore\n.",
    ], ids=["module", "class"])
    def test_payload_naming_a_retired_class_rejected(self, tmp_path, missing):
        """An intact snapshot whose pickle names a module or class this
        build lacks (a cuboid in a retired store layout) is refused as a
        PersistError, not a raw import error."""
        import hashlib

        header = (
            b"RCUBEWS\n"
            + FORMAT_VERSION.to_bytes(4, "little")
            + len(missing).to_bytes(8, "little")
            + hashlib.sha256(missing).digest()
        )
        path = tmp_path / "s.rcube"
        path.write_bytes(header + missing)
        with pytest.raises(PersistError, match="does not unpickle"):
            load_workspace(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(PersistError, match="cannot read"):
            load_workspace(tmp_path / "ghost.rcube")

    def test_duplicate_cube_name_rejected(self, workspace):
        _dataset, ws = workspace
        with pytest.raises(PersistError):
            ws.add_cube("R", ws.cube("R"))

    def test_unknown_cube_name_rejected(self, workspace):
        _dataset, ws = workspace
        with pytest.raises(PersistError):
            ws.cube("ghost")


class TestCrashAtomicity:
    """A save interrupted at any point leaves the old snapshot or the new
    one — never a torn file, never ``.tmp`` residue."""

    def test_failed_rename_keeps_previous_snapshot(
        self, workspace, tmp_path, monkeypatch
    ):
        import os

        dataset, ws = workspace
        path = tmp_path / "s.rcube"
        ws.save(path)
        before = path.read_bytes()

        ws.db.table("R").insert_rows([(0, 0, 0, 0.0, 0.0)])
        ws.cube("R").refresh_delta(ws.db.table("R"))

        def dying_replace(src, dst):  # crash between temp write and rename
            raise OSError("simulated kill -9 before rename")

        monkeypatch.setattr(os, "replace", dying_replace)
        with pytest.raises(OSError, match="simulated"):
            ws.save(path)
        monkeypatch.undo()

        # previous snapshot byte-identical, no temp residue to collide with
        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp")) == []
        assert load_workspace(path).cube("R").delta_size == 0

        # and the retry (fault cleared) lands the new state
        ws.save(path)
        assert load_workspace(path).cube("R").delta_size == 1

    def test_temp_file_is_fsynced_before_rename(
        self, workspace, tmp_path, monkeypatch
    ):
        import os

        _dataset, ws = workspace
        path = tmp_path / "s.rcube"
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda s, d: (events.append("replace"), real_replace(s, d))[1],
        )
        ws.save(path)
        # data fsync strictly precedes the rename; the parent-directory
        # fsync (rename durability) strictly follows it
        assert "replace" in events
        idx = events.index("replace")
        assert "fsync" in events[:idx], "temp file not fsynced before rename"
        assert "fsync" in events[idx + 1 :], "parent dir not fsynced after rename"


class TestShardedWorkspace:
    SCHEMA = None  # built lazily to keep module import light

    @staticmethod
    def _schema():
        from repro.relational import Schema, ranking_attr, selection_attr

        return Schema.of(
            [
                selection_attr("a1", 3),
                selection_attr("a2", 4),
                ranking_attr("n1"),
                ranking_attr("n2"),
            ]
        )

    @staticmethod
    def _rows(count=90, seed=7):
        import random

        rng = random.Random(seed)
        return [
            (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
            for _ in range(count)
        ]

    def test_round_trip_answers_identically(self, tmp_path):
        from repro.persist import load_sharded_workspace, save_sharded_workspace
        from repro.serve import ShardedQueryService
        from repro.shard import build_sharded

        rows = self._rows()
        cube = build_sharded(self._schema(), rows, 3, block_size=8)
        queries = [
            TopKQuery(4, {"a1": v}, LinearFunction(["n1", "n2"], [1.0, 0.5]))
            for v in range(3)
        ]
        with ShardedQueryService(cube, workers=1) as service:
            expected = [
                [(r.tid, round(r.score, 9)) for r in res.rows]
                for res in service.run_batch(queries)
            ]

        manifest = save_sharded_workspace(cube, tmp_path / "ws")
        assert len(manifest["shards"]) == 3

        restored = load_sharded_workspace(tmp_path / "ws")
        assert restored.num_rows == len(rows)
        # the cost model's record counts travel with every shard's stores
        for shard, again in zip(cube.shards, restored.shards):
            assert again.cube.base_table.counts == shard.cube.base_table.counts
            for key, cuboid in shard.cube.cuboids.items():
                assert again.cube.cuboids[key].counts == cuboid.counts
        with ShardedQueryService(restored, workers=1) as service:
            got = [
                [(r.tid, round(r.score, 9)) for r in res.rows]
                for res in service.run_batch(queries)
            ]
        assert got == expected

    def test_manifest_digests_ignore_compiled_geometry(self, tmp_path):
        """Filling the grids' first-touch tables — all that serving leaves
        behind in a grid — must not move the SHA-256 pins.  The tables are
        warmed directly, not by queries: a snapshot also pickles the
        metrics registry and the buffer pool's frames, which any query
        moves, so a queried deployment re-pins for reasons of its own."""
        from repro.persist import save_sharded_workspace
        from repro.shard import build_sharded

        cube = build_sharded(self._schema(), self._rows(), 3, block_size=8)

        def digests(name):
            manifest = save_sharded_workspace(cube, tmp_path / name)
            return [entry["sha256"] for entry in manifest["shards"]]

        before = digests("cold")
        for shard in cube.shards:
            state = shard.cube.snapshot()
            grid = state.grid
            positions = grid.project(("n2", "n1"))
            for bid in range(grid.num_blocks):
                grid.neighbors(bid)
                grid.sub_box(bid, positions)
                for cuboid in state.cuboids.values():
                    cuboid.pid_of_bid(bid)
            assert len(grid._neighbors) == grid.num_blocks
        assert digests("warm") == before

    def test_torn_multi_file_save_detected(self, tmp_path):
        from repro.persist import load_sharded_workspace, save_sharded_workspace
        from repro.shard import build_sharded

        rows = self._rows()
        cube = build_sharded(self._schema(), rows, 2, block_size=8)
        directory = tmp_path / "ws"
        save_sharded_workspace(cube, directory)
        stale_shard = (directory / "shard_0000.rcube").read_bytes()

        cube.append_rows(self._rows(count=10, seed=99))
        save_sharded_workspace(cube, directory)

        # simulate a torn save: one shard file reverted to the old epoch
        (directory / "shard_0000.rcube").write_bytes(stale_shard)
        with pytest.raises(PersistError, match="torn|corrupt"):
            load_sharded_workspace(directory)

    def test_v1_shard_file_rejected(self, tmp_path):
        """A shard file is a workspace snapshot behind the same version
        gate: a deployment saved by the v1 release (manifest pins intact)
        is refused, not decoded."""
        import hashlib
        import json

        from repro.persist import load_sharded_workspace, save_sharded_workspace
        from repro.shard import build_sharded

        cube = build_sharded(self._schema(), self._rows(), 2, block_size=8)
        directory = tmp_path / "ws"
        manifest = save_sharded_workspace(cube, directory)
        shard_file = directory / manifest["shards"][1]["file"]
        data = bytearray(shard_file.read_bytes())
        data[8:12] = (1).to_bytes(4, "little")
        shard_file.write_bytes(bytes(data))
        manifest["shards"][1]["sha256"] = hashlib.sha256(data).hexdigest()
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="format v1 is not supported"):
            load_sharded_workspace(directory)

    def test_v1_manifest_rejected(self, tmp_path):
        """A v1 manifest's shard build arguments carry ``workers``, which
        the build no longer takes: the first deferred shard build would
        raise a ``TypeError`` mid-append, so the load refuses it."""
        import json

        from repro.persist import load_sharded_workspace, save_sharded_workspace
        from repro.shard import build_sharded

        cube = build_sharded(self._schema(), self._rows(), 2, block_size=8)
        directory = tmp_path / "ws"
        manifest = save_sharded_workspace(cube, directory)
        manifest["format_version"] = 1
        for entry in manifest["shards"]:
            entry["build_kwargs"]["workers"] = 1
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match="manifest v1 is not supported"):
            load_sharded_workspace(directory)

    def test_build_kwargs_the_build_does_not_take_rejected(self, tmp_path):
        """A manifest entry's ``build_kwargs`` replay into
        ``RankingCube.build`` at a shard's first deferred build; a key the
        build does not take (the retired ``compress``) is refused at load,
        not as a ``TypeError`` mid-append."""
        import json

        from repro.persist import load_sharded_workspace, save_sharded_workspace
        from repro.shard import build_sharded

        cube = build_sharded(self._schema(), self._rows(), 2, block_size=8)
        directory = tmp_path / "ws"
        manifest = save_sharded_workspace(cube, directory)
        assert load_sharded_workspace(directory).num_rows == cube.num_rows
        manifest["shards"][1]["build_kwargs"]["compress"] = True
        (directory / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistError, match=r"\['compress'\]"):
            load_sharded_workspace(directory)

    def test_missing_manifest_rejected(self, tmp_path):
        from repro.persist import load_sharded_workspace

        (tmp_path / "ws").mkdir()
        with pytest.raises(PersistError):
            load_sharded_workspace(tmp_path / "ws")
