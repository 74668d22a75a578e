"""Analytic cost estimation for top-k access paths.

The paper's Figure 9 experiment ends with an observation the system itself
should act on: "with 4 selection conditions, the number of qualified
tuples is ~100.  Ranking is even not necessary in this case."  Its
Section 6 adds a second routing decision: with many ranking dimensions,
one cube is built per small group of them, and a query must go to a cube
whose grid covers its function.  This module provides the estimates the
router (:class:`repro.route.router.AdaptiveRouter`) makes both calls on:

* :func:`estimate_qualifying` — expected qualifying tuples under the
  standard attribute-independence assumption over the table's exact
  per-value histograms;
* :func:`estimate_cube_cost` — expected page reads for the ranking cube's
  progressive search: to surface k qualifying tuples it must visit about
  ``k / (q * B)`` base blocks (each block holds ~B tuples of which a
  fraction ``q`` qualify), in whole columns of tied blocks along grid
  dimensions the function ignores, each costing a base-block read plus
  amortized pseudo-block and directory reads.  A cube whose grid lacks a
  ranking dimension of the query, or whose cuboids cannot cover its
  selections, raises :class:`~repro.core.cube.CubeError`;
* :func:`estimate_baseline_cost` — the baseline's index-or-scan cost, the
  same model its planner uses.

These are *estimates*: coarse by design (independence, uniform spread of
qualifying tuples over blocks), good enough to separate the regimes — the
router's tests check decisions, not digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..relational.query import TopKQuery
from ..relational.table import Table
from ..storage.device import RANDOM_READ_WEIGHT, SEQ_READ_WEIGHT
from .cube import CubeError, RankingCube


@dataclass(frozen=True)
class CostEstimate:
    """One access path's estimated cost."""

    method: str
    pages: float
    io_cost: float
    qualifying: float

    def __lt__(self, other: "CostEstimate") -> bool:
        return self.io_cost < other.io_cost


def estimate_qualifying(table: Table, query: TopKQuery) -> float:
    """Expected qualifying tuples (independence over exact histograms)."""
    fraction = 1.0
    for name, value in query.selections.items():
        fraction *= table.selectivity(name, value)
    return fraction * table.num_rows


def estimate_cube_cost(
    cube: RankingCube, table: Table, query: TopKQuery
) -> CostEstimate:
    """Expected cost of the progressive ranking-cube search."""
    grid = cube.grid
    missing = set(query.ranking.dims) - set(grid.dims)
    if missing:
        raise CubeError(
            f"grid {grid.dims} does not cover ranking dimensions "
            f"{sorted(missing)}"
        )
    qualifying = estimate_qualifying(table, query)
    total_blocks = grid.num_blocks
    expected_blocks = expected_blocks_to_k(query.k, qualifying, total_blocks)
    # a block's bound ignores the grid dimensions the function does not
    # rank on, so the frontier visits whole columns of tied blocks along
    # them (Figure 6): round up to a multiple of one column
    column = math.prod(
        bins
        for dim, bins in zip(grid.dims, grid.bins_per_dim)
        if dim not in query.ranking.dims
    )
    expected_blocks = min(
        float(total_blocks), float(column * math.ceil(expected_blocks / column))
    )
    # base blocks are only read where the cell is non-empty: when fewer
    # tuples qualify than blocks get visited, most probes skip the base
    # read entirely (the empty-cell optimization of Section 3.2.1)
    base_reads = min(expected_blocks, max(qualifying, 0.0))
    covering = cube.covering_cuboids(query.selection_names)
    # pseudo-block fetches amortize over the scale factor's merge window
    pseudo_reads = sum(
        max(1.0, expected_blocks / max(1, c.scale_factor ** grid.num_dims))
        for c in covering
    )
    descent = 3.0 * max(1, len(covering))  # directory descents, mostly cached
    pages = base_reads + pseudo_reads + descent
    return CostEstimate(
        method="ranking_cube",
        pages=pages,
        io_cost=RANDOM_READ_WEIGHT * pages,
        qualifying=qualifying,
    )


def expected_heap_pages(rows: float, num_pages: int) -> float:
    """Expected distinct heap pages touched by ``rows`` random row fetches.

    Cardenas' formula: ``P * (1 - (1 - 1/P)^rows)``.  Multiple qualifying
    rows land on the same heap page once ``rows`` approaches the page
    count, so an index plan's cost saturates at one read per *page*, never
    one per *row*.  Charging per row (the old model) overstated the index
    path by up to ``records_per_page``× and biased the router
    toward the cube exactly in the selective regime where the paper says
    the baseline should win (Figure 9, s=4).
    """
    if num_pages <= 0:
        raise ValueError(f"num_pages must be positive, got {num_pages}")
    if rows <= 0:
        return 0.0
    return num_pages * (1.0 - (1.0 - 1.0 / num_pages) ** rows)


def estimate_baseline_cost(table: Table, query: TopKQuery) -> CostEstimate:
    """Expected cost of the baseline's best plan (index or scan)."""
    qualifying = estimate_qualifying(table, query)
    scan_cost = SEQ_READ_WEIGHT * table.heap.num_pages
    best_io = scan_cost
    best_pages = float(table.heap.num_pages)
    for name, value in query.selections.items():
        if name not in table.secondary_indexes:
            continue
        rows = table.value_count(name, value)
        pages = expected_heap_pages(rows, table.heap.num_pages)
        index_io = RANDOM_READ_WEIGHT * pages
        if index_io < best_io:
            best_io = index_io
            best_pages = pages
    return CostEstimate(
        method="baseline",
        pages=best_pages,
        io_cost=best_io,
        qualifying=qualifying,
    )


def expected_blocks_to_k(
    k: int, qualifying: float, total_blocks: int
) -> float:
    """Blocks to visit before k qualifying tuples surface.

    The single formula behind the cube cost model: :func:`estimate_cube_cost`
    and the estimate tests both call it, so the cost model and its
    oracle can never round or clamp the same quantity differently.  Blocks
    come in whole units (``ceil``), at least one is always visited
    (``k >= 1`` forces the ceil to 1+), and the frontier can never visit
    more blocks than the grid holds.
    """
    if total_blocks <= 0:
        raise ValueError("total_blocks must be positive")
    if qualifying <= 0:
        return float(total_blocks)
    per_block = qualifying / total_blocks
    return min(float(total_blocks), math.ceil(k / per_block))
