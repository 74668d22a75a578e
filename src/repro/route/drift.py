"""Distribution drift detection and online re-partitioning.

The equi-depth grid (Section 3.1.2) is balanced for the data it was built
over: every bin holds ~``T / bins`` tuples per dimension, which is what
makes ``expected_blocks_to_k`` honest and block occupancy uniform.  As
appended tuples shift the score distribution, new data piles into a few
bins (delta tuples are merged per query, and once compacted they inflate
the corresponding base blocks), progressive search degrades, and the cost
model quietly diverges from reality.

:class:`DriftDetector` measures exactly that: per ranking dimension it
counts the *live* population (base-table tuples plus the delta) per
existing bin and reports the worst ``max bin depth / expected depth``
ratio.  A fresh equi-depth build sits near 1.0 by construction; a drifted
stream pushes it up.  Past a threshold, :func:`repartition_cube` rebuilds
the grid over the current data and re-materializes base table and every
cuboid through the same snapshot → build-on-fresh-pages → flush → atomic
swap → invalidate seam the compactor uses, bumping every cuboid epoch so
no stale cache entry survives.  Queries in flight keep their pinned
snapshots (old grid, old stores) and finish exactly; queries opened after
the swap see the new geometry — never a mix.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

from ..core.base_table import BaseBlockTable
from ..core.cube import RankingCube
from ..core.cuboid import RankingCuboid
from ..core.parallel import CuboidSpec, compute_build_groups
from ..core.partition import EquiDepthPartitioner, Partitioner
from ..obs.tracing import maybe_span
from ..relational.table import Table

#: A bin holding more than this multiple of the equi-depth expectation
#: marks the grid as drifted.  2.0 means "some bin carries double its
#: fair share" — far outside equi-depth construction noise.
DEFAULT_DRIFT_THRESHOLD = 2.0


@dataclass(frozen=True)
class DriftReport:
    """One drift measurement over the live (base + delta) population."""

    max_depth_ratio: float
    per_dim: dict = field(default_factory=dict)  #: dim -> worst bin ratio
    tuples: int = 0
    drifted: bool = False


class DriftDetector:
    """Compares live per-bin depths against the equi-depth expectation."""

    def __init__(
        self, cube: RankingCube, threshold: float = DEFAULT_DRIFT_THRESHOLD
    ):
        if threshold <= 1.0:
            raise ValueError(f"threshold must exceed 1.0, got {threshold}")
        self.cube = cube
        self.threshold = threshold
        self.last_report: DriftReport | None = None

    def check(self, state=None) -> DriftReport:
        """Measure drift against a snapshot (taken fresh when omitted)."""
        if state is None:
            state = self.cube.snapshot()
        # live per-dimension values: base-table points plus delta points
        values_by_dim: list[list[float]] = [[] for _ in state.grid.dims]
        for _bid, records in state.base_table.blocks():
            for record in records:
                for index in range(len(state.grid.dims)):
                    values_by_dim[index].append(float(record[1 + index]))
        for _tid, _sel, rank_values in state.delta:
            for index, dim in enumerate(state.grid.dims):
                values_by_dim[index].append(float(rank_values[dim]))

        per_dim: dict[str, float] = {}
        total = len(values_by_dim[0]) if values_by_dim else 0
        for index, dim in enumerate(state.grid.dims):
            edges = state.grid.boundaries[index]
            bins = len(edges) - 1
            if bins < 1 or total == 0:
                per_dim[dim] = 1.0
                continue
            counts = [0] * bins
            # interior edges split bins; values beyond either end clamp to
            # the edge bins, exactly as BlockGrid.locate places tuples
            for value in values_by_dim[index]:
                slot = bisect_right(edges, value, 1, bins) - 1
                counts[slot] += 1
            expected = total / bins
            per_dim[dim] = max(counts) / expected
        worst = max(per_dim.values(), default=1.0)
        report = DriftReport(
            max_depth_ratio=worst,
            per_dim=per_dim,
            tuples=total,
            drifted=worst > self.threshold,
        )
        self.last_report = report
        return report


@dataclass
class RepartitionReport:
    """What one :func:`repartition_cube` run did."""

    tuples: int = 0
    absorbed_delta: int = 0
    cuboids_rebuilt: int = 0
    blocks_before: int = 0
    blocks_after: int = 0
    swapped: bool = False
    aborted: bool = False        #: a concurrent swap raced us
    wall_s: float = 0.0
    epochs: dict = field(default_factory=dict)


def repartition_cube(
    cube: RankingCube,
    table: Table,
    pool,
    partitioner: Partitioner | None = None,
    registry=None,
    tracer=None,
) -> RepartitionReport:
    """Rebuild the grid over the live data and swap it in online.

    Follows the compactor's crash/concurrency discipline: everything is
    built from one snapshot on fresh pages, the pool is flushed before
    the swap (write-ahead ordering), the ``(grid, base_table, cuboids,
    delta)`` quadruple flips atomically under the cube's state lock, and
    invalidation listeners run after.  The whole snapshotted delta is
    absorbed — the new grid is built over base *and* delta points, so
    every one of them lands inside the new full box (no residuals).
    Cuboid epochs bump by one, exactly like a compaction generation.
    """
    started = time.perf_counter()
    report = RepartitionReport()
    if partitioner is None:
        partitioner = EquiDepthPartitioner()
    with maybe_span(tracer, "route.repartition") as span:
        state = cube.snapshot()
        report.blocks_before = state.grid.num_blocks
        drained = state.delta_size

        # ---- gather the live population, tid-ordered (canonical order) --
        entries: list[tuple[int, tuple[float, ...], dict | None]] = []
        for _bid, records in state.base_table.blocks():
            for record in records:
                entries.append((int(record[0]), tuple(record[1:]), None))
        for tid, sel_values, rank_values in state.delta:
            point = tuple(
                float(rank_values[dim]) for dim in state.grid.dims
            )
            entries.append((int(tid), point, sel_values))
        entries.sort(key=lambda item: item[0])
        tids = [tid for tid, _point, _sel in entries]
        points = [point for _tid, point, _sel in entries]
        report.tuples = len(tids)
        report.absorbed_delta = drained

        # ---- new equi-depth geometry over the live distribution ---------
        columns = [list(column) for column in zip(*points)]
        new_grid = partitioner.build_grid(
            state.grid.dims, columns, cube.block_size
        )
        report.blocks_after = new_grid.num_blocks

        # ---- selection values: base rows from one relation scan, delta
        # rows from their stored selection dicts -------------------------
        cuboid_keys = sorted(
            state.cuboids, key=lambda key: (len(key), sorted(key))
        )
        needed_dims = tuple(
            sorted(set().union(*cuboid_keys)) if cuboid_keys else ()
        )
        schema = table.schema
        needed_pos = {dim: schema.position(dim) for dim in needed_dims}
        sel_by_tid: dict[int, tuple[int, ...]] = {}
        delta_sel = {
            tid: sel for tid, _point, sel in entries if sel is not None
        }
        if needed_dims:
            wanted = set(tids)
            for record in table.scan():
                tid = int(record[0])
                if tid in wanted and tid not in delta_sel:
                    sel_by_tid[tid] = tuple(
                        int(record[1 + needed_pos[d]]) for d in needed_dims
                    )
            for tid, sel in delta_sel.items():
                sel_by_tid[tid] = tuple(
                    int(sel[d]) for d in needed_dims
                )
        sel_rows = [sel_by_tid.get(tid, ()) for tid in tids]

        # ---- regroup and rebuild every store on fresh pages -------------
        sel_index = {dim: i for i, dim in enumerate(needed_dims)}
        specs = [
            CuboidSpec(
                dims=state.cuboids[key].dims,
                positions=tuple(
                    sel_index[d] for d in state.cuboids[key].dims
                ),
                scale=state.cuboids[key].scale_factor,
            )
            for key in cuboid_keys
        ]
        grouped = compute_build_groups(new_grid, specs, tids, points, sel_rows)
        new_base = BaseBlockTable.from_groups(
            pool, new_grid, grouped.base_groups
        )
        new_cuboids: dict[frozenset, RankingCuboid] = {}
        for key, groups in zip(cuboid_keys, grouped.cuboid_groups):
            old = state.cuboids[key]
            new_cuboids[key] = RankingCuboid.from_groups(
                pool,
                old.dims,
                old.cardinalities,
                new_grid,
                groups,
                scale_override=old.scale_factor,
                compress=old.compressed,
                epoch=old.epoch + 1,
            )
        report.cuboids_rebuilt = len(new_cuboids)

        # ---- durability before visibility -------------------------------
        pool.flush()

        # ---- atomic swap -------------------------------------------------
        with cube._state_lock:
            if cube.base_table is not state.base_table:
                report.aborted = True
                report.wall_s = time.perf_counter() - started
                _record(registry, report)
                return report
            cube.grid = new_grid
            cube.base_table = new_base
            cube.cuboids = new_cuboids
            cube._delta = cube._delta.entries[drained:]
        cube._notify_invalidation()

        report.swapped = True
        report.epochs = {c.name: c.epoch for c in new_cuboids.values()}
        if span is not None:
            span.add_many(
                tuples=report.tuples,
                absorbed_delta=report.absorbed_delta,
                blocks_after=report.blocks_after,
            )
    report.wall_s = time.perf_counter() - started
    _record(registry, report)
    return report


def _record(registry, report: RepartitionReport) -> None:
    if registry is None:
        return
    registry.counter("route.repartition.runs").inc()
    if not report.swapped:
        registry.counter("route.repartition.aborts").inc()
        return
    registry.counter("route.repartition.swaps").inc()
    registry.counter("route.repartition.tuples").inc(report.tuples)
    registry.counter("route.repartition.delta_absorbed").inc(
        report.absorbed_delta
    )
    registry.histogram("route.repartition.wall_s").observe(report.wall_s)
