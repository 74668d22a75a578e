"""Per-shard cube construction and the sharded-relation facade.

:func:`build_sharded` routes an initial load through a
:class:`~repro.shard.map.ShardMap`, builds one fully independent stack
per shard — device, buffer pool, table, :class:`RankingCube` — and wraps
them in a :class:`ShardedCube` that preserves *global* tid semantics:
global tids are assigned sequentially in load order, exactly as a
single-table :meth:`~repro.relational.table.Table.insert_rows` would,
so a sharded deployment and an unsharded one agree on every tid a query
answer names.

Each shard's table stores rows under shard-local tids (its own device
knows nothing of the others); :class:`CubeShard.tid_map` translates
local back to global, and :meth:`ShardedCube.locate_tid` routes a
global tid to its owning shard for projections and point fetches.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core.cube import DEFAULT_BLOCK_SIZE, RankingCube
from ..relational.database import Database
from ..relational.schema import Schema
from ..relational.table import Table, check_rows
from .map import ShardError, ShardMap


@dataclass
class CubeShard:
    """One shard's independent stack: device + table + cube + tid map.

    ``cube`` is ``None`` while the shard is empty (a cube cannot be
    built over zero rows — e.g. a hash bucket no build row landed in);
    the first append materializes it from the stored build arguments.
    """

    shard_id: int
    db: Database
    table: Table
    cube: RankingCube | None
    #: shard-local tid -> global tid, in insertion order.
    tid_map: list[int] = field(default_factory=list)
    #: RankingCube.build kwargs, kept for deferred first-append builds.
    build_kwargs: dict = field(default_factory=dict)

    def to_global(self, local_tid: int) -> int:
        return self.tid_map[local_tid]

    @property
    def num_rows(self) -> int:
        return len(self.tid_map)


def clone_shard(shard: CubeShard) -> CubeShard:
    """Deep-copy one shard's entire stack — a warm replica.

    The pickle round-trip is the same serialization a
    :class:`~repro.persist.Workspace` snapshot uses, so the clone holds
    its own device, buffer pool, table, and cube with identical page
    images and delta state; object identity inside the stack (the table
    registered in the database, the shared pool) is preserved by the
    pickle memo.  The thread-mode serving tier promotes such clones
    when a primary's device dies mid-query.  Note a clone of a shard
    whose device is a :class:`~repro.storage.faults.FaultyBlockDevice`
    copies the *injector state too* — failure tests must arm kill rules
    on the primary only after cloning.
    """
    db, table, cube = pickle.loads(
        pickle.dumps(
            (shard.db, shard.table, shard.cube),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    return CubeShard(
        shard_id=shard.shard_id,
        db=db,
        table=table,
        cube=cube,
        tid_map=list(shard.tid_map),
        build_kwargs=dict(shard.build_kwargs),
    )


class ShardedCube:
    """A relation + ranking cube split over N independent shards.

    Construct via :func:`build_sharded`.  The facade owns global tid
    assignment (sequential in load/append order) and the global→shard
    lookup; everything else — storage, cube maintenance, query I/O — is
    per-shard and fully isolated, which is what lets one shard's device
    fail without corrupting another's state.
    """

    def __init__(
        self,
        schema: Schema,
        name: str,
        shard_map: ShardMap,
        shards: Sequence[CubeShard],
    ):
        if len(shards) != shard_map.num_shards:
            raise ShardError(
                f"{len(shards)} shards for a {shard_map.num_shards}-way map"
            )
        self.schema = schema
        self.name = name
        self.shard_map = shard_map
        self.shards = list(shards)
        # global tid -> (shard_id, local tid)
        self._owner: dict[int, tuple[int, int]] = {}
        self._num_rows = 0
        for shard in self.shards:
            for local, gtid in enumerate(shard.tid_map):
                self._owner[gtid] = (shard.shard_id, local)
            self._num_rows += len(shard.tid_map)

    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self.shard_map.num_shards

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def locate_tid(self, gtid: int) -> tuple[CubeShard, int]:
        """The shard owning a global tid, plus its local tid there."""
        try:
            shard_id, local = self._owner[gtid]
        except KeyError:
            raise ShardError(f"no shard owns tid {gtid}") from None
        return self.shards[shard_id], local

    def owner_of(self, gtid: int) -> int | None:
        """The id of the shard holding global tid ``gtid``, or ``None``
        when no shard does."""
        owner = self._owner.get(gtid)
        return None if owner is None else owner[0]

    def fetch_by_tid(self, gtid: int) -> tuple:
        """Point-fetch one row by global tid (projection support)."""
        shard, local = self.locate_tid(gtid)
        return shard.table.fetch_by_tid(local)

    def cold_cache(self) -> None:
        """Drop every shard's buffered pages (per-query cold start)."""
        for shard in self.shards:
            shard.db.cold_cache()

    def replace_shard(self, shard_id: int, replacement: CubeShard) -> None:
        """Swap a shard's stack for a replica (failover promotion).

        The replacement must cover exactly the same global tids as the
        shard it replaces — a stale clone (rows appended after it was
        taken) is rejected rather than silently losing rows.  The owner
        map is keyed by shard id, so it stays valid across the swap.
        """
        current = self.shards[shard_id]
        if replacement.shard_id != shard_id:
            raise ShardError(
                f"replica is for shard {replacement.shard_id}, "
                f"not {shard_id}"
            )
        if replacement.tid_map != current.tid_map:
            raise ShardError(
                f"replica of shard {shard_id} covers {len(replacement.tid_map)} "
                f"row(s), the shard holds {len(current.tid_map)} — stale clone"
            )
        self.shards[shard_id] = replacement

    # ------------------------------------------------------------------
    def append_rows(self, rows: Iterable[Sequence]) -> int:
        """Append rows with fresh sequential global tids; returns count.

        The whole batch is checked first, so a bad row changes no shard;
        then :meth:`place_rows` routes it.
        """
        rows = check_rows(self.schema, rows)
        self.place_rows(enumerate(rows, start=self._num_rows))
        return len(rows)

    def place_rows(self, placed: Iterable[tuple[int, Sequence]]) -> None:
        """Insert each ``(global tid, row)`` of ``placed`` on the shard
        :meth:`ShardMap.shard_of_append_row` routes it to.

        ``placed`` runs in ascending tid order, so every shard's tid map
        stays sorted.  Each touched shard bulk-inserts its slice and
        refreshes its cube's delta store, so the next query snapshot on
        every shard sees the new tuples (under local tids — the serving
        layer translates).  Appends and the WAL replay both place rows
        through here.
        """
        buckets: dict[int, list[tuple[int, Sequence]]] = {}
        for gtid, row in placed:
            shard_id = self.shard_map.shard_of_append_row(gtid, row, self.schema)
            buckets.setdefault(shard_id, []).append((gtid, row))
        for shard_id in sorted(buckets):
            shard = self.shards[shard_id]
            pairs = buckets[shard_id]
            shard.table.insert_rows([row for _gtid, row in pairs])
            if shard.cube is None:
                # deferred first build: the shard was empty until now, so
                # the fresh cube already covers every row — no delta needed
                shard.cube = RankingCube.build(shard.table, **shard.build_kwargs)
            else:
                shard.cube.refresh_delta(shard.table)
            for gtid, _row in pairs:
                self._owner[gtid] = (shard.shard_id, len(shard.tid_map))
                shard.tid_map.append(gtid)
            self._num_rows += len(pairs)


def build_sharded(
    schema: Schema,
    rows: Iterable[Sequence],
    num_shards: int = 2,
    *,
    name: str = "R",
    mode: str = "tid_range",
    key_dim: str | None = None,
    replication_factor: int = 1,
    block_size: int = DEFAULT_BLOCK_SIZE,
    buffer_capacity: int = 4096,
    database_factory: Callable[[int], Database] | None = None,
    **cube_kwargs,
) -> ShardedCube:
    """Load + build an N-way sharded ranking cube in one call.

    Parameters
    ----------
    schema, rows:
        The relation; global tids are assigned sequentially in ``rows``
        order (identical to an unsharded ``insert_rows`` load).
    num_shards, mode, key_dim, replication_factor:
        Routing policy — see :class:`~repro.shard.map.ShardMap`.  A
        ``replication_factor > 1`` makes the serving tier keep warm
        replicas and fail over instead of aborting on a dead primary.
    block_size, **cube_kwargs:
        Passed through to each shard's :meth:`RankingCube.build`.
    database_factory:
        ``shard_id -> Database`` override, e.g. to wrap one shard's
        device in a :class:`~repro.storage.faults.FaultyBlockDevice`
        for failure testing.  Default: a fresh pristine
        :class:`Database` per shard with ``buffer_capacity`` frames.
    """
    rows = list(rows)
    if mode == "selection_key":
        if key_dim is None:
            raise ShardError("selection_key mode needs key_dim")
        shard_map = ShardMap.selection_key(
            schema, key_dim, num_shards, replication_factor
        )
    elif mode == "tid_range":
        shard_map = ShardMap.tid_range(len(rows), num_shards, replication_factor)
    else:
        raise ShardError(f"unknown shard mode {mode!r}")

    per_shard: list[list[tuple[int, Sequence]]] = [[] for _ in range(num_shards)]
    for gtid, row in enumerate(rows):
        per_shard[shard_map.shard_of_build_row(gtid, row, schema)].append(
            (gtid, row)
        )

    shards: list[CubeShard] = []
    for shard_id in range(num_shards):
        if database_factory is not None:
            db = database_factory(shard_id)
        else:
            db = Database(buffer_capacity=buffer_capacity)
        pairs = per_shard[shard_id]
        table = db.load_table(name, schema, [row for _gtid, row in pairs])
        build_kwargs = dict(block_size=block_size, **cube_kwargs)
        cube = RankingCube.build(table, **build_kwargs) if pairs else None
        shards.append(
            CubeShard(
                shard_id=shard_id,
                db=db,
                table=table,
                cube=cube,
                tid_map=[gtid for gtid, _row in pairs],
                build_kwargs=build_kwargs,
            )
        )
    return ShardedCube(schema, name, shard_map, shards)
