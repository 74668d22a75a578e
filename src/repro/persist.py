"""Workspace persistence: save/load a database with its cubes.

Everything in this library lives over an in-memory simulated device, so
"persistence" means snapshotting: a :class:`Workspace` bundles a database,
its source table name, and any materialized cubes, and serializes to a
single checksummed file.  Loading restores the exact object graph — page
images, directories, delta stores — so a saved cube answers queries
identically without rebuilding.

The format is a small header (magic, version, payload length, SHA-256)
followed by a pickle of the workspace.  The checksum catches truncation
and bit rot; the version gate prevents silently unpickling a layout from
a different release.
"""

from __future__ import annotations

import hashlib
import inspect
import io
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path

from .core.cube import RankingCube
from .relational.database import Database
from .storage.device import StorageError

_MAGIC = b"RCUBEWS\n"
#: Bumped whenever a pickled page image or store changes layout.  v1
#: devices hold pickled B+-tree nodes; v2 holds struct-packed node pages
#: (:mod:`repro.index.bptree`), which would misread a v1 image; v3 stores
#: pickle their per-key record counts (``ChainStore.counts``), which the
#: cost model reads and a v2 store lacks.
FORMAT_VERSION = 3


class PersistError(Exception):
    """Raised on malformed, corrupted, or incompatible snapshot files."""


def _fsync_directory(directory: Path) -> None:
    """Flush a directory's metadata (the rename itself) to stable storage.

    Platforms without directory fds (Windows) skip this; the rename is
    still atomic there, only its durability ordering is weaker.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_replace(target: str | Path, data: bytes) -> int:
    """Crash-atomic, durable file write: temp + fsync + rename + dir fsync.

    The claim :meth:`Workspace.save` makes — a crash leaves the previous
    file or the new one, never a torn one — needs all four steps: writing
    the sibling temp file, fsyncing it *before* the rename (otherwise the
    rename can reach disk ahead of the data and a crash exposes a
    garbage-filled target), the atomic :func:`os.replace`, and an fsync of
    the parent directory so the rename itself is durable.  A failure at
    any point removes the temp file, so a retry never collides with (or
    silently succeeds against) a half-written leftover.

    This is the **single** durability helper: workspace snapshots, shard
    snapshots, manifest (re)writes, and WAL segment rotations
    (:mod:`repro.ingest.wal`) all land through it, so every on-disk
    artifact shares one crash discipline.
    """
    target = Path(target)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _fsync_directory(target.parent)
    return len(data)


#: Backwards-compatible alias (pre-unification name).
atomic_write_bytes = atomic_replace


@dataclass
class Workspace:
    """A database plus its materialized ranking cubes, as one unit.

    Parameters
    ----------
    db:
        The database owning the shared device (tables, indexes, and cube
        storage all live on it).
    cubes:
        Named cubes over tables of ``db`` (name -> cube); names are free
        form, conventionally the table name they index.
    """

    db: Database
    cubes: dict[str, RankingCube] = field(default_factory=dict)

    def add_cube(self, name: str, cube: RankingCube) -> None:
        if name in self.cubes:
            raise PersistError(f"workspace already has a cube named {name!r}")
        self.cubes[name] = cube

    def cube(self, name: str) -> RankingCube:
        try:
            return self.cubes[name]
        except KeyError:
            raise PersistError(f"no cube named {name!r} in workspace") from None

    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> int:
        """Write the workspace snapshot; returns bytes written.

        The write is atomic *and durable* (temp file + fsync + rename +
        parent-directory fsync — see :func:`atomic_replace`): a crash
        mid-save leaves either the previous snapshot or the new one, never
        a torn one, and a failed attempt leaves no ``.tmp`` residue behind.
        A storage fault while flushing dirty pages aborts the save with a
        typed :class:`PersistError` — the dirty frames keep their state, so
        the save can be retried once the fault clears.
        """
        # flush buffered pages so the device holds the complete state
        try:
            self.db.pool.flush()
        except StorageError as exc:
            raise PersistError(
                f"cannot snapshot: flushing dirty pages failed ({exc})"
            ) from exc
        payload = pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).digest()
        header = (
            _MAGIC
            + FORMAT_VERSION.to_bytes(4, "little")
            + len(payload).to_bytes(8, "little")
            + digest
        )
        return atomic_replace(path, header + payload)

    def compact(self, name: str, **kwargs) -> "object":
        """Run one foreground delta compaction on the named cube.

        Merges the cube's delta store into its materialization (see
        :class:`~repro.core.compaction.CubeCompactor`) and returns the
        :class:`~repro.core.compaction.CompactionReport`.  Extra keyword
        arguments pass through to the compactor.  The swap is atomic with
        respect to :meth:`save`: the cube pickles its state under the same
        lock the compactor swaps under, so a snapshot taken concurrently
        captures the pre- or post-merge cube, never a mix.
        """
        from .core.compaction import CubeCompactor

        cube = self.cube(name)
        return CubeCompactor(cube, self.db.pool, **kwargs).compact_once()

    @classmethod
    def load(cls, path: str | Path) -> "Workspace":
        """Read and validate a snapshot written by :meth:`save`."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise PersistError(f"cannot read snapshot: {exc}") from exc
        return _decode_workspace(data)


def _decode_workspace(data: bytes) -> Workspace:
    """Check a snapshot's header and checksum, then unpickle it."""
    stream = io.BytesIO(data)
    magic = stream.read(len(_MAGIC))
    if magic != _MAGIC:
        raise PersistError("not a ranking-cube workspace snapshot")
    version = int.from_bytes(stream.read(4), "little")
    if version != FORMAT_VERSION:
        raise PersistError(
            f"snapshot format v{version} is not supported "
            f"(this build reads v{FORMAT_VERSION})"
        )
    length = int.from_bytes(stream.read(8), "little")
    digest = stream.read(32)
    payload = stream.read()
    if len(payload) != length:
        raise PersistError(
            f"snapshot truncated: header promises {length} bytes, "
            f"found {len(payload)}"
        )
    if hashlib.sha256(payload).digest() != digest:
        raise PersistError("snapshot checksum mismatch (corrupted file)")
    try:
        workspace = pickle.loads(payload)
    except Exception as exc:
        # An intact payload that names a class or module this build
        # lacks (say, a store type since retired) fails here.
        raise PersistError(
            f"snapshot payload does not unpickle in this build "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(workspace, Workspace):
        raise PersistError(
            f"snapshot holds a {type(workspace).__name__}, not a Workspace"
        )
    return workspace


def save_workspace(
    db: Database, cubes: dict[str, RankingCube], path: str | Path
) -> int:
    """Convenience wrapper: bundle and save in one call."""
    return Workspace(db=db, cubes=dict(cubes)).save(path)


def load_workspace(path: str | Path) -> Workspace:
    """Convenience wrapper around :meth:`Workspace.load`."""
    return Workspace.load(path)


# ----------------------------------------------------------------------
# sharded workspaces
# ----------------------------------------------------------------------

SHARD_MANIFEST = "manifest.json"
#: v2: a shard's ``build_kwargs`` no longer carry ``workers`` (the build
#: has one serial grouping path); a v1 manifest's would fail its first
#: deferred shard build, so it is refused at load.
SHARD_MANIFEST_VERSION = 2


#: What a manifest's ``build_kwargs`` may name: the shard builder replays
#: them into :meth:`RankingCube.build` at the first deferred build.
_BUILD_PARAMETERS = frozenset(
    inspect.signature(RankingCube.build).parameters
) - {"table"}


def load_pinned_shard(directory: str | Path, entry: dict) -> Workspace:
    """Load the shard snapshot a manifest ``entry`` names, after checking
    the file's SHA-256 against the entry's pin.  The one pin check: a
    sharded reload and a process-mode worker both load through it."""
    name = entry["file"]
    try:
        data = (Path(directory) / name).read_bytes()
    except OSError as exc:
        raise PersistError(f"missing shard snapshot {name!r}: {exc}") from exc
    digest = hashlib.sha256(data).hexdigest()
    if digest != entry["sha256"]:
        raise PersistError(
            f"shard snapshot {name!r} does not match its manifest pin "
            f"(torn multi-file save or corruption: expected "
            f"{entry['sha256'][:12]}…, found {digest[:12]}…)"
        )
    return _decode_workspace(data)


@dataclass
class ShardedWorkspace:
    """A sharded deployment (:class:`~repro.shard.builder.ShardedCube`)
    persisted as one :class:`Workspace` snapshot per shard plus a JSON
    manifest.

    Layout under the target directory::

        shard_0000.rcube   # Workspace: shard 0's database + cube
        shard_0001.rcube
        ...
        manifest.json      # shard map, tid maps, per-file SHA-256

    Crash consistency is two-level: every file lands via
    :func:`atomic_replace` (temp + fsync + rename + dir fsync), and
    the manifest — written *last* — pins the exact shard-file contents
    by SHA-256.  A crash between shard saves leaves a mix of old and new
    shard files, but the old manifest then fails its checksum pins and
    :meth:`load` reports the torn state as a typed :class:`PersistError`
    instead of silently serving a cross-version deployment.
    """

    cube: "object"  # ShardedCube (typed loosely: persist must not import shard)

    def _write_shard_snapshot(self, directory: Path, shard) -> dict:
        """Persist one shard's snapshot; return its manifest entry."""
        cube = self.cube
        filename = f"shard_{shard.shard_id:04d}.rcube"
        cubes = {cube.name: shard.cube} if shard.cube is not None else {}
        Workspace(db=shard.db, cubes=cubes).save(directory / filename)
        digest = hashlib.sha256((directory / filename).read_bytes())
        return {
            "shard_id": shard.shard_id,
            "file": filename,
            "sha256": digest.hexdigest(),
            "rows": len(shard.tid_map),
            "epoch": 0 if shard.cube is None else shard.cube.epoch,
            "tid_map": list(shard.tid_map),
            "build_kwargs": {
                k: v
                for k, v in shard.build_kwargs.items()
                if isinstance(v, (int, float, str, bool))
            },
        }

    def _write_manifest(self, directory: Path, shard_entries: list) -> dict:
        """Assemble and durably land the manifest (atomic_replace)."""
        cube = self.cube
        manifest = {
            "format_version": SHARD_MANIFEST_VERSION,
            "name": cube.name,
            "shard_map": cube.shard_map.to_manifest(),
            "num_rows": cube.num_rows,
            "shards": shard_entries,
        }
        atomic_replace(
            directory / SHARD_MANIFEST,
            json.dumps(manifest, indent=2).encode() + b"\n",
        )
        return manifest

    def save(self, directory: str | Path) -> dict:
        """Write every shard snapshot, then the manifest; returns it."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        shard_entries = [
            self._write_shard_snapshot(directory, shard)
            for shard in self.cube.shards
        ]
        return self._write_manifest(directory, shard_entries)

    def save_shard(self, directory: str | Path, shard_id: int) -> dict:
        """Re-persist one shard and re-pin it in the manifest.

        The maintenance path (:mod:`repro.ingest`) calls this after a
        shard's compaction bumps its cuboid epochs: only the changed
        shard's snapshot is rewritten, then the manifest — both through
        :func:`atomic_replace`, the same fsync-temp + fsync-dir
        discipline as a full :meth:`save`.  A crash between the two
        writes leaves the *old* manifest pinning the *old* shard file's
        hash against a new shard file, which :meth:`load` reports as a
        typed torn-save :class:`PersistError` instead of silently mixing
        generations.  Returns the updated manifest.
        """
        directory = Path(directory)
        try:
            manifest = json.loads((directory / SHARD_MANIFEST).read_text())
        except OSError as exc:
            raise PersistError(
                f"save_shard needs an existing manifest: {exc}"
            ) from exc
        shards = {int(e["shard_id"]): e for e in manifest["shards"]}
        if shard_id not in shards:
            raise PersistError(f"manifest has no shard {shard_id}")
        shard = self.cube.shards[shard_id]
        shards[shard_id] = self._write_shard_snapshot(directory, shard)
        return self._write_manifest(
            directory, [shards[sid] for sid in sorted(shards)]
        )

    @classmethod
    def load(cls, directory: str | Path) -> "ShardedWorkspace":
        """Reload a sharded deployment saved by :meth:`save`."""
        from .shard.builder import CubeShard, ShardedCube
        from .shard.map import ShardMap

        directory = Path(directory)
        try:
            manifest = json.loads((directory / SHARD_MANIFEST).read_text())
        except OSError as exc:
            raise PersistError(f"cannot read shard manifest: {exc}") from exc
        except ValueError as exc:
            raise PersistError(f"malformed shard manifest: {exc}") from exc
        version = manifest.get("format_version")
        if version != SHARD_MANIFEST_VERSION:
            raise PersistError(
                f"shard manifest v{version} is not supported "
                f"(this build reads v{SHARD_MANIFEST_VERSION})"
            )
        name = manifest["name"]
        shard_map = ShardMap.from_manifest(manifest["shard_map"])
        shards = []
        for entry in manifest["shards"]:
            build_kwargs = dict(entry.get("build_kwargs", {}))
            unknown = sorted(set(build_kwargs) - _BUILD_PARAMETERS)
            if unknown:
                raise PersistError(
                    f"shard {entry['shard_id']} build_kwargs name "
                    f"{unknown}, which RankingCube.build does not take"
                )
            workspace = load_pinned_shard(directory, entry)
            table = workspace.db.table(name)
            shards.append(
                CubeShard(
                    shard_id=int(entry["shard_id"]),
                    db=workspace.db,
                    table=table,
                    cube=workspace.cubes.get(name),
                    tid_map=[int(t) for t in entry["tid_map"]],
                    build_kwargs=build_kwargs,
                )
            )
        shards.sort(key=lambda s: s.shard_id)
        schema = shards[0].table.schema if shards else None
        if schema is None:
            raise PersistError("shard manifest lists no shards")
        cube = ShardedCube(schema, name, shard_map, shards)
        if cube.num_rows != int(manifest["num_rows"]):
            raise PersistError(
                f"manifest promises {manifest['num_rows']} rows, "
                f"tid maps hold {cube.num_rows}"
            )
        return cls(cube=cube)


def save_sharded_workspace(cube, directory: str | Path) -> dict:
    """Convenience wrapper: persist a :class:`ShardedCube` deployment."""
    return ShardedWorkspace(cube=cube).save(directory)


def load_sharded_workspace(directory: str | Path):
    """Convenience wrapper: returns the reloaded :class:`ShardedCube`."""
    return ShardedWorkspace.load(directory).cube
