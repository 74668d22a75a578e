"""The Rank Mapping approach (Section 5.1.2, "RM").

Reference [4] of the paper maps a top-k query to a range query.  Two pieces
matter:

* **Bound values** — the paper feeds RM the *optimal* bounds ("the best
  estimation that any mapping strategy can provide"): the range derived
  from the true k-th result score.  We reproduce that oracle: the executor
  keeps an in-memory snapshot of the relation (explicitly outside the I/O
  meter — it models the workload-adaptive estimator's knowledge, not a data
  access) from which it computes the k-th score, then converts the score
  into per-dimension ranges via the convex level-set bounds of
  :mod:`repro.ranking.levelset`.
* **Index configuration** — a multi-dimensional composite index ordered
  (selection dims..., ranking dims...).  When the query's dimensions match
  the index's leading dimensions the range query is fast; otherwise large
  parts of the index are scanned and residual conditions on unindexed
  dimensions force random heap fetches — the sensitivity Figures 7, 9 and
  14 report.
"""

from __future__ import annotations

import heapq

from ..ranking.levelset import level_set_box
from ..relational.query import (
    QueryError,
    QueryResult,
    ResultRow,
    TopKQuery,
    push_topk,
    rows_from_heap,
)
from ..relational.table import Table


class RankMappingExecutor:
    """Top-k via optimal-bound range queries over a composite index."""

    def __init__(self, table: Table):
        self.table = table
        # Oracle snapshot for optimal bound computation (not metered I/O —
        # it stands in for [4]'s workload-adaptive selectivity estimator
        # fed with perfect information, as in the paper's Section 5.1.2).
        self._oracle_rows = [record for record in table.scan()]
        self.last_bounds: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    # ------------------------------------------------------------------
    def execute(self, query: TopKQuery) -> QueryResult:
        query.validate_against(self.table.schema)
        index = self.table.find_composite_index(query.selection_names)
        if index is None:
            # No single index covers the query (the high-dimensional,
            # several-partial-indexes configuration of Section 5.3): use the
            # index overlapping the most query dimensions; the rest become
            # residual conditions checked by heap fetches.
            index = self._best_overlap_index(query.selection_names)

        threshold = self.optimal_threshold(query)
        if threshold is None:
            return QueryResult()  # no qualifying tuples at all
        lower, upper = self._data_box(query)
        lo_bounds, hi_bounds = level_set_box(query.ranking, threshold, lower, upper)
        # Pad outward by a relative epsilon: the bounds must be a superset
        # of the level set, and the division in the closed forms can round
        # a boundary tuple's coordinate just outside the raw range.
        lo_bounds = tuple(lo - 1e-9 * (abs(lo) + 1.0) for lo in lo_bounds)
        hi_bounds = tuple(hi + 1e-9 * (abs(hi) + 1.0) for hi in hi_bounds)
        self.last_bounds = (lo_bounds, hi_bounds)

        # Reorder the bounds to the index's ranking-dimension order; any
        # index ranking dim the query does not rank on is unbounded.
        per_dim = dict(zip(query.ranking.dims, zip(lo_bounds, hi_bounds)))
        index_lo = [per_dim.get(d, (float("-inf"), float("inf")))[0] for d in index.ranking_dims]
        index_hi = [per_dim.get(d, (float("-inf"), float("inf")))[1] for d in index.ranking_dims]

        bound_sel = {
            name: value
            for name, value in query.selections.items()
            if name in index.selection_dims
        }
        residual = {
            name: value
            for name, value in query.selections.items()
            if name not in index.selection_dims
        }

        result = QueryResult()
        topk: list[tuple[float, int]] = []
        rank_order = {d: i for i, d in enumerate(index.ranking_dims)}
        fn_positions = [rank_order[d] for d in query.ranking.dims]
        schema = self.table.schema
        for tid, rank_values in index.prefix_range_query(bound_sel, index_lo, index_hi):
            if residual:
                # conditions on dimensions absent from the index require a
                # heap fetch — the expensive path in high-dimensional data
                row = self.table.fetch_by_tid(tid)
                result.blocks_accessed += 1
                if any(
                    row[schema.position(name)] != value
                    for name, value in residual.items()
                ):
                    continue
            point = [rank_values[p] for p in fn_positions]
            score = query.ranking.score(point)
            result.tuples_examined += 1
            push_topk(topk, query.k, score, tid)
        result.rows = rows_from_heap(topk)
        if query.projection:
            result.rows = [
                ResultRow(
                    tid=row.tid,
                    score=row.score,
                    values=tuple(
                        self.table.fetch_by_tid(row.tid)[schema.position(name)]
                        for name in query.projection
                    ),
                )
                for row in result.rows
            ]
        return result

    # ------------------------------------------------------------------
    def optimal_threshold(self, query: TopKQuery) -> float | None:
        """The true k-th best score (the oracle bound of Section 5.1.2)."""
        schema = self.table.schema
        scores: list[float] = []
        worst: float | None = None
        for record in self._oracle_rows:
            row = record[1:]
            if not query.matches(schema, row):
                continue
            score = query.score_row(schema, row)
            if len(scores) < query.k:
                heapq.heappush(scores, -score)
                worst = -scores[0]
            elif worst is not None and score < worst:
                heapq.heapreplace(scores, -score)
                worst = -scores[0]
        return worst

    def _data_box(
        self, query: TopKQuery
    ) -> tuple[list[float], list[float]]:
        """Observed min/max of each queried ranking dimension."""
        schema = self.table.schema
        positions = [1 + schema.position(d) for d in query.ranking.dims]
        lower = [float("inf")] * len(positions)
        upper = [float("-inf")] * len(positions)
        for record in self._oracle_rows:
            for i, p in enumerate(positions):
                value = float(record[p])
                lower[i] = min(lower[i], value)
                upper[i] = max(upper[i], value)
        return lower, upper

    def _best_overlap_index(self, query_dims):
        """The composite index sharing the most (leading) dims with the query."""
        best = None
        best_key = (-1, -1)
        wanted = set(query_dims)
        for index in self.table.composite_indexes.values():
            overlap = len(wanted & set(index.selection_dims))
            prefix = 0
            for dim in index.selection_dims:
                if dim in wanted:
                    prefix += 1
                else:
                    break
            if (overlap, prefix) > best_key:
                best, best_key = index, (overlap, prefix)
        if best is None:
            raise QueryError("rank mapping requires at least one composite index")
        return best
