"""Distribution drift detection and online re-partitioning.

The equi-depth grid (Section 3.1.2) is balanced for the data it was built
over: every bin holds ~``T / bins`` tuples per dimension, which is what
keeps block occupancy uniform.  As appended tuples shift the score
distribution, new data piles into a few bins (delta tuples are merged per
query, and once compacted they inflate the corresponding base blocks),
and progressive search degrades: the blocks holding the best scores
overflow while their neighbors stay thin.

:class:`DriftDetector` measures exactly that: per ranking dimension it
counts the *live* population (base-table tuples plus the delta) per
existing bin and reports the worst ``max bin depth / expected depth``
ratio.  A fresh equi-depth build sits near 1.0 by construction; a drifted
stream pushes it up.  Past a threshold, :func:`repartition_cube` rebuilds
the grid and every store over the live data and installs them (see
:meth:`RankingCube.install`).  Queries in flight keep their pinned
snapshots (old grid, old stores) and finish exactly; queries opened after
the swap see the new geometry — never a mix.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field

from ..core.cube import RankingCube, materialize, scan_rows
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

    The build's own scan -> group -> materialize over one snapshot's live
    rows (below its watermark: the base table plus the whole delta, so
    nothing stays residual), on a new equi-depth grid, keeping each
    cuboid's dimensions, scale factor and encoding and bumping every
    epoch by one.  The stores go in through :meth:`RankingCube.install`;
    a run that loses a race to another install reports ``aborted``.
    """
    started = time.perf_counter()
    report = RepartitionReport()
    if partitioner is None:
        partitioner = EquiDepthPartitioner()
    with maybe_span(tracer, "route.repartition") as span:
        state = cube.snapshot()
        report.blocks_before = state.grid.num_blocks
        old = sorted(
            state.cuboids.values(), key=lambda c: (len(c.dims), sorted(c.dims))
        )
        rows = scan_rows(
            table,
            state.grid.dims,
            sorted(set().union(*state.cuboids)),
            keep=lambda tids: tids < state.watermark,
        )
        report.tuples = len(rows.tids)
        report.absorbed_delta = state.delta_size

        new_grid = partitioner.build_grid(
            state.grid.dims, rows.points.T.tolist(), cube.block_size
        )
        report.blocks_after = new_grid.num_blocks
        new_base, new_cuboids = materialize(
            pool,
            new_grid,
            table.schema,
            [(c.dims, c.scale_factor) for c in old],
            rows,
            epoch=state.epoch + 1,
            tracer=tracer,
        )
        report.cuboids_rebuilt = len(new_cuboids)

        pool.flush()
        report.swapped = cube.install(
            state, grid=new_grid, base_table=new_base, cuboids=new_cuboids
        )
        report.aborted = not report.swapped
        if report.swapped:
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
