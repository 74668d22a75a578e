"""Partitioned parallel cube construction.

The expensive part of :meth:`RankingCube.build` is pure CPU: locating
every tuple's base block and grouping ``(tid, bid)`` pairs under their
cuboid cell keys.  This module shards the scanned base table by tid range,
runs the per-shard grouping in a :class:`~concurrent.futures.ProcessPoolExecutor`
(workers return pickled partial group maps), and merges the partials in
shard order.

The merge preserves the *canonical layout guarantee*: a chain store's
on-page bytes depend only on the map ``key -> ordered record list`` (the
store sorts groups by key at build time), and per-key record order in the
serial build is scan order.  Sharding by contiguous tid ranges and
concatenating each key's partial lists in ascending shard order reproduces
scan order exactly, and all page allocation/writing still happens in the
parent process in the same sequence the serial build uses — so the device
image of a parallel build is byte-identical to the serial one (property
tested in ``tests/properties/test_build_equivalence.py``).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Mapping, Sequence

from .blocks import BlockGrid
from .pseudo import PseudoBlockMap


def spawn_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every worker process in this repo uses.

    ``spawn`` starts workers from a fresh interpreter instead of forking:
    a forked child inherits the parent's locks and threads mid-state (the
    serving layer runs background compactors and worker pools, so a fork
    taken at the wrong instant can deadlock on a held registry or buffer
    latch), while a spawned child re-imports and rebuilds its state from
    pickled payloads only.  Both the parallel cube builder and the
    process-per-shard serving tier boot workers from this context, so
    "what a worker sees" is always "what was explicitly shipped to it".
    """
    return multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class CuboidSpec:
    """Grouping recipe for one cuboid, picklable for worker processes.

    ``positions`` index into the scanned selection row; ``scale`` is the
    already-resolved pseudo-block scale factor (workers apply policy-free
    arithmetic only, so parent and worker can never disagree on a pid).
    """

    dims: tuple[str, ...]
    positions: tuple[int, ...]
    scale: int


@dataclass
class ShardPartial:
    """One shard's contribution: per-bid base records + per-spec cell maps."""

    base_groups: dict
    cuboid_groups: list
    num_rows: int


@dataclass
class BuildGroups:
    """Merged grouping result handed back to the cube builder."""

    base_groups: dict
    cuboid_groups: list
    shards: int


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


def build_shard_partial(
    grid: BlockGrid,
    specs: Sequence[CuboidSpec],
    tids: Sequence[int],
    points: Sequence[Sequence[float]],
    sel_rows: Sequence[Sequence[int]],
    pseudo_maps: Mapping[int, PseudoBlockMap] | None = None,
) -> ShardPartial:
    """Group one shard's tuples: bid assignment + per-cuboid cell maps.

    Pure CPU over picklable inputs — this is the unit of work a pool
    worker runs.  Record coercions (``int`` tids/bids, ``float`` points)
    mirror the serial build exactly so merged groups are bit-compatible.
    ``pseudo_maps`` (scale factor -> map over ``grid``) lets a caller
    that holds warm maps resolve pids through them; fresh ones otherwise.
    """
    bids = grid.locate_many(points) if points else []
    base_groups: dict[int, list[tuple]] = {}
    for tid, point, bid in zip(tids, points, bids):
        base_groups.setdefault(bid, []).append((int(tid), *map(float, point)))

    # a tuple's pid depends on its bid and the scale factor only, not on the
    # cuboid: resolve each distinct bid once per distinct scale, and let the
    # cuboids sharing a scale index the same per-tuple list
    pids_by_scale: dict[int, list[int]] = {}
    for scale in {spec.scale for spec in specs}:
        if pseudo_maps is None:
            pid_of_bid = PseudoBlockMap(grid, scale).pid_of_bid
        else:
            pid_of_bid = pseudo_maps[scale].pid_of_bid
        pid_by_bid = {bid: pid_of_bid(bid) for bid in set(bids)}
        pids_by_scale[scale] = [pid_by_bid[bid] for bid in bids]

    cuboid_groups: list[dict[tuple, list[tuple[int, int]]]] = []
    for spec in specs:
        groups: dict[tuple, list[tuple[int, int]]] = {}
        for row, tid, bid, pid in zip(sel_rows, tids, bids, pids_by_scale[spec.scale]):
            key = tuple(int(row[p]) for p in spec.positions) + (pid,)
            groups.setdefault(key, []).append((int(tid), int(bid)))
        cuboid_groups.append(groups)
    return ShardPartial(
        base_groups=base_groups, cuboid_groups=cuboid_groups, num_rows=len(tids)
    )


def _shard_worker(payload) -> ShardPartial:
    """Top-level (picklable) pool entry point."""
    grid, specs, tids, points, sel_rows = payload
    return build_shard_partial(grid, specs, tids, points, sel_rows)


def merge_partials(
    partials: Sequence[ShardPartial], num_specs: int
) -> tuple[dict, list]:
    """Concatenate shard partials in shard order (== scan order)."""
    base_groups: dict[int, list[tuple]] = {}
    cuboid_groups: list[dict] = [{} for _ in range(num_specs)]
    for partial in partials:
        for bid, records in partial.base_groups.items():
            base_groups.setdefault(bid, []).extend(records)
        for merged, groups in zip(cuboid_groups, partial.cuboid_groups):
            for key, pairs in groups.items():
                merged.setdefault(key, []).extend(pairs)
    return base_groups, cuboid_groups


def compute_build_groups(
    grid: BlockGrid,
    specs: Sequence[CuboidSpec],
    tids: Sequence[int],
    points: Sequence[Sequence[float]],
    sel_rows: Sequence[Sequence[int]],
    workers: int = 1,
) -> BuildGroups:
    """Group the scanned relation for materialization, possibly in parallel.

    ``workers=1`` runs in-process (no pool, no pickling); ``workers>1``
    fans the tid range out over a process pool.  Both paths produce the
    same merged maps — the parallel one is the serial one, re-ordered only
    in wall-clock time.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ranges = shard_ranges(len(tids), workers)
    if workers == 1 or len(ranges) <= 1:
        # one partial is already in scan order: merging would only copy it
        partial = build_shard_partial(grid, specs, tids, points, sel_rows)
        return BuildGroups(partial.base_groups, partial.cuboid_groups, shards=1)

    from concurrent.futures import ProcessPoolExecutor

    payloads = [
        (grid, list(specs), tids[start:stop], points[start:stop], sel_rows[start:stop])
        for start, stop in ranges
    ]
    with ProcessPoolExecutor(
        max_workers=len(payloads), mp_context=spawn_context()
    ) as pool:
        partials = list(pool.map(_shard_worker, payloads))
    base_groups, cuboid_groups = merge_partials(partials, len(specs))
    return BuildGroups(base_groups, cuboid_groups, shards=len(payloads))
