"""Cost estimation for top-k access paths.

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
* :func:`estimate_cube_cost` — expected page reads of the ranking cube's
  progressive search, priced from the record counts the cube keeps in
  memory for every stored block and cell (a walk over counts, no page
  read).  A cube whose grid lacks a ranking dimension of the query, or
  whose cuboids cannot cover its selections, raises
  :class:`~repro.core.cube.CubeError`.  Its core,
  :func:`estimate_cube_pages`, prices any covering family over a
  snapshot: the cuboid advisor (:mod:`repro.route.advisor`) prices
  cuboids it has not built with it;
* :func:`estimate_baseline_cost` — the baseline's index-or-scan cost, the
  same model its planner uses.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..relational.query import TopKQuery
from ..relational.table import Table
from ..storage.device import RANDOM_READ_WEIGHT, SEQ_READ_WEIGHT
from .cube import CubeError, CubeSnapshot, RankingCube


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
    """Expected cost of the cube's progressive search over its current
    state: :func:`estimate_cube_pages` over the cuboids that cover the
    query."""
    state = cube.snapshot()
    pages = estimate_cube_pages(
        state, state.covering_cuboids(query.selection_names), query
    )
    return CostEstimate(
        method="ranking_cube",
        pages=pages,
        io_cost=RANDOM_READ_WEIGHT * pages,
        qualifying=estimate_qualifying(table, query),
    )


def estimate_cube_pages(
    state: CubeSnapshot, covering: Sequence, query: TopKQuery
) -> float:
    """Expected pages of the progressive search, from the counts.

    ``covering`` are the cuboids the search reads: the snapshot's own, or
    any family with each member's ``dims``, ``pseudo`` map and
    ``counts`` (the advisor prices cuboids it has not built).  Per base
    block ``b`` with ``n_b`` stored tuples, the expected qualifying
    tuples are ``q_b = n_b * prod_j c_j / N_j`` over the covering
    cuboids, ``c_j`` being the count of the query's cell in ``b``'s
    pseudo block and ``N_j`` the base tuples in that pseudo block.  Their
    scores are spread uniformly between the block's lower bound and its
    maximum (a corner of the box, ``f`` being convex).  The search stops
    at the score ``t`` where k tuples are expected, having popped exactly
    the blocks whose bound is ``<= t`` (Lemma 1 and the stop rule).  The
    pages are the ones the executor counts: one fetch per distinct pseudo
    block of the first covering cuboid; one of a later cuboid where the
    earlier cells are expected non-empty; a base read where the block is
    expected to hold a qualifying tuple (``1 - exp(-q_b)``), or, with no
    selections, at every popped block.  Delta tuples are merged in memory
    after the search and cost no page, so they are left out.
    """
    grid, fn = state.grid, query.ranking
    missing = set(fn.dims) - set(grid.dims)
    if missing:
        raise CubeError(
            f"grid {grid.dims} does not cover ranking dimensions "
            f"{sorted(missing)}"
        )
    lower, upper = _score_ranges(fn, grid, grid.coord_arrays)
    tuples = state.base_table.tuple_array
    # passing[j]: expected tuples per block that pass the first j cuboids
    passing, pids = [tuples], []
    for cuboid in covering:
        pseudo = cuboid.pseudo
        pid, size = pseudo.pid_array, pseudo.num_pseudo_blocks
        in_pid = np.bincount(pid, weights=tuples, minlength=size)
        values = tuple(query.selections[d] for d in cuboid.dims)
        counts = cuboid.counts
        cell = np.array([counts.get(values + (p,), 0) for p in range(size)], float)
        share = np.divide(cell, in_pid, out=np.zeros(size), where=in_pid > 0)
        passing.append(passing[-1] * share[pid])
        pids.append(pid)
    qualifying = passing[-1]

    popped = lower <= _kth_score(query.k, qualifying, lower, upper)
    if not covering:
        return float(np.count_nonzero(popped))
    pages = float(len(np.unique(pids[0][popped])))
    for pid, before in zip(pids[1:], passing[1:-1]):
        expected = np.bincount(pid[popped], weights=before[popped])
        pages += float(-np.expm1(-expected).sum())
    return pages + float(-np.expm1(-qualifying[popped]).sum())


def _score_ranges(fn, grid, coords) -> tuple[np.ndarray, np.ndarray]:
    """Per block: the search's lower bound of ``fn`` over the box, and its
    maximum there (at a corner: ``fn`` is convex)."""
    positions = grid.project(fn.dims)
    edges = [np.asarray(grid.boundaries[p], float) for p in positions]
    ranked = [coords[p] for p in positions]
    terms = fn.box_min_terms([grid.boundaries[p] for p in positions])
    if terms is not None:
        offset, per_bin = terms
        lower = offset + sum(
            np.asarray(row, float)[coord] for row, coord in zip(per_bin, ranked)
        )
    else:
        lower = np.array([
            fn.min_over_box(*grid.sub_box(bid, positions))
            for bid in range(grid.num_blocks)
        ])
    upper = np.full(grid.num_blocks, -math.inf)
    for corner in itertools.product((0, 1), repeat=len(positions)):
        columns = [e[c + side] for e, c, side in zip(edges, ranked, corner)]
        upper = np.maximum(upper, np.asarray(fn.eval_batch(columns), float))
    return lower, np.maximum(upper, lower)


def _kth_score(
    k: int, qualifying: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> float:
    """The least score at which ``k`` tuples are expected, each block's
    spread uniformly over ``[lower, upper]``; ``inf`` when fewer qualify.

    The expected count below ``t`` is piecewise linear in ``t``: a block
    adds slope ``q / width`` from its lower bound to its upper one (a
    block of zero width adds a step of ``q``).  One sweep over the sorted
    kinks finds where it reaches ``k``.
    """
    if qualifying.sum() < k:
        return math.inf
    live = qualifying > 0
    q, lo, hi = qualifying[live], lower[live], upper[live]
    ramp = hi > lo
    slope = np.divide(q, hi - lo, out=np.zeros(len(q)), where=ramp)
    at = np.concatenate([lo, hi[ramp]])
    order = np.argsort(at, kind="stable")
    at = at[order]
    # clipped: the ramps' ends cancel their starts only up to rounding
    slopes = np.maximum(np.cumsum(np.concatenate([slope, -slope[ramp]])[order]), 0.0)
    steps = np.concatenate([np.where(ramp, 0.0, q), np.zeros(ramp.sum())])[order]
    # reached[i]: the expected count at kink i, its step included
    reached = np.cumsum(steps)
    reached[1:] += np.cumsum(slopes[:-1] * np.diff(at))
    i = min(int(np.searchsorted(reached, k)), len(at) - 1)
    if i > 0 and slopes[i - 1] > 0:
        # on the ramp into kink i, unless kink i's own step gets there
        t = at[i - 1] + (k - reached[i - 1]) / slopes[i - 1]
        return float(min(t, at[i]))
    return float(at[i])


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
