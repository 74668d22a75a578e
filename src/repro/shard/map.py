"""Shard routing: which shard owns a row, and which shards a query needs.

Two modes, chosen at build time and frozen into the map:

* ``tid_range`` — contiguous near-equal global-tid ranges
  (:func:`shard_ranges`).  Every query fans out to all shards; appended
  rows spread round-robin by global tid so no shard becomes the append
  hot spot.
* ``selection_key`` — rows hash by one selection dimension's encoded
  value (``value % num_shards``).  A query that pins the key dimension
  with an equality selection routes to exactly one shard; all other
  queries fan out.  Appends follow the same hash.

The map is a value object: it round-trips through the sharded
workspace manifest (:meth:`to_manifest` / :meth:`from_manifest`) so a
reloaded deployment routes exactly as the one that saved it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..relational.schema import Schema

MODES = ("tid_range", "selection_key")


class ShardError(Exception):
    """Raised for invalid shard configuration or routing requests."""


def shard_ranges(count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``[0, count)`` into up to ``shards`` contiguous ranges.

    Ranges are near-equal (first ``count % shards`` ranges take one extra
    element) and ascending, so concatenating per-shard results restores
    the original order.  Empty ranges are dropped.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    shards = min(shards, count) if count else 0
    if shards == 0:
        return []
    base, extra = divmod(count, shards)
    ranges = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


@dataclass(frozen=True)
class ShardMap:
    """Immutable routing policy for one sharded relation.

    Parameters
    ----------
    num_shards:
        Shard count (``>= 1``); shard ids are ``0..num_shards-1``.
    mode:
        ``"tid_range"`` or ``"selection_key"`` (see module docstring).
    key_dim:
        The hashing selection dimension (``selection_key`` mode only).
    ranges:
        Per-shard ``[lo, hi)`` global-tid ranges of the *initial* build
        (``tid_range`` mode only); shards past the row count get empty
        ranges so every shard id stays addressable.
    replication_factor:
        Copies of each shard the serving tier keeps (``1`` = primary
        only, no failover — the pre-replication behaviour).  ``N > 1``
        asks :class:`~repro.serve.sharded.ShardedQueryService` to hold
        ``N - 1`` warm replicas per shard and fail queries over to them
        when the primary dies instead of aborting.
    """

    num_shards: int
    mode: str = "tid_range"
    key_dim: str | None = None
    ranges: tuple[tuple[int, int], ...] = ()
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ShardError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.replication_factor < 1:
            raise ShardError(
                f"replication_factor must be >= 1, got {self.replication_factor}"
            )
        if self.mode not in MODES:
            raise ShardError(f"unknown shard mode {self.mode!r} (want one of {MODES})")
        if self.mode == "selection_key" and not self.key_dim:
            raise ShardError("selection_key mode needs a key_dim")
        if self.mode == "tid_range" and len(self.ranges) != self.num_shards:
            raise ShardError(
                f"tid_range mode needs one range per shard "
                f"({len(self.ranges)} ranges for {self.num_shards} shards)"
            )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def tid_range(
        cls, num_rows: int, num_shards: int, replication_factor: int = 1
    ) -> "ShardMap":
        """Contiguous near-equal ranges over ``[0, num_rows)`` global tids."""
        ranges = shard_ranges(num_rows, num_shards)
        while len(ranges) < num_shards:  # more shards than rows: empty tails
            tail = ranges[-1][1] if ranges else 0
            ranges.append((tail, tail))
        return cls(
            num_shards=num_shards,
            mode="tid_range",
            ranges=tuple(ranges),
            replication_factor=replication_factor,
        )

    @classmethod
    def selection_key(
        cls,
        schema: Schema,
        key_dim: str,
        num_shards: int,
        replication_factor: int = 1,
    ) -> "ShardMap":
        """Hash rows by one selection dimension's encoded value."""
        attr = schema.attribute(key_dim)
        if not attr.is_selection:
            raise ShardError(f"{key_dim!r} is not a selection attribute")
        return cls(
            num_shards=num_shards,
            mode="selection_key",
            key_dim=key_dim,
            replication_factor=replication_factor,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def shard_of_build_row(
        self, tid: int, row: Sequence, schema: Schema
    ) -> int:
        """Owner of one initial-load row (``tid`` = its global tid)."""
        if self.mode == "selection_key":
            assert self.key_dim is not None
            return int(row[schema.position(self.key_dim)]) % self.num_shards
        for shard_id, (lo, hi) in enumerate(self.ranges):
            if lo <= tid < hi:
                return shard_id
        raise ShardError(f"tid {tid} outside every build range")

    def shard_of_append_row(
        self, tid: int, row: Sequence, schema: Schema
    ) -> int:
        """Owner of one appended row (spread round-robin in tid mode)."""
        if self.mode == "selection_key":
            return self.shard_of_build_row(tid, row, schema)
        return tid % self.num_shards

    def shards_for_query(self, selections: Mapping[str, int]) -> tuple[int, ...]:
        """Shard ids a query with these selections must consult.

        Only an equality selection on the ``selection_key`` dimension
        prunes — tid ranges carry no selection information, so every
        other case fans out to all shards.
        """
        if self.mode == "selection_key" and self.key_dim in selections:
            return (int(selections[self.key_dim]) % self.num_shards,)
        return tuple(range(self.num_shards))

    # ------------------------------------------------------------------
    # manifest round-trip
    # ------------------------------------------------------------------
    def to_manifest(self) -> dict:
        return {
            "num_shards": self.num_shards,
            "mode": self.mode,
            "key_dim": self.key_dim,
            "ranges": [list(r) for r in self.ranges],
            "replication_factor": self.replication_factor,
        }

    @classmethod
    def from_manifest(cls, data: Mapping) -> "ShardMap":
        return cls(
            num_shards=int(data["num_shards"]),
            mode=str(data["mode"]),
            key_dim=data.get("key_dim"),
            ranges=tuple((int(lo), int(hi)) for lo, hi in data.get("ranges", ())),
            # pre-replication manifests carry no factor; they mean 1
            replication_factor=int(data.get("replication_factor", 1)),
        )
