"""The Baseline approach (Section 5.1.2, "BL").

Models what a commercial engine does with a non-clustered index on each
selection dimension: a cost-based choice between

* **index plan** — probe the most selective index among the query's
  conditions, random-fetch every rid it returns, filter the remaining
  conditions on the fetched tuples, score, and keep a top-k heap; and
* **scan plan** — sequential scan of the whole heap when the index plan's
  expected random I/O exceeds the scan's sequential I/O.

Either way, *every* qualifying tuple is evaluated — the behavior whose cost
the ranking cube avoids (the paper: "current database systems will have to
evaluate all the data records").
"""

from __future__ import annotations

from ..relational.query import (
    QueryResult,
    ResultRow,
    TopKQuery,
    push_topk,
    rows_from_heap,
)
from ..relational.table import Table
from ..storage.device import RANDOM_READ_WEIGHT, SEQ_READ_WEIGHT


class BaselineExecutor:
    """Index-or-scan top-k execution over the base relation."""

    def __init__(self, table: Table):
        self.table = table
        self.last_plan: str | None = None

    # ------------------------------------------------------------------
    def execute(self, query: TopKQuery) -> QueryResult:
        query.validate_against(self.table.schema)
        plan_attr = self._choose_index(query)
        if plan_attr is None:
            self.last_plan = "scan"
            return self._scan_plan(query)
        self.last_plan = f"index({plan_attr})"
        return self._index_plan(query, plan_attr)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _choose_index(self, query: TopKQuery) -> str | None:
        """Most selective indexed condition, if cheaper than scanning."""
        best_attr = None
        best_rows = None
        for name, value in query.selections.items():
            if name not in self.table.secondary_indexes:
                continue
            rows = self.table.value_count(name, value)
            if best_rows is None or rows < best_rows:
                best_attr, best_rows = name, rows
        if best_attr is None:
            return None
        # one random fetch per matching rid vs. one sequential read per page
        index_cost = RANDOM_READ_WEIGHT * (best_rows or 0)
        scan_cost = SEQ_READ_WEIGHT * self.table.heap.num_pages
        return best_attr if index_cost < scan_cost else None

    # ------------------------------------------------------------------
    # plans
    # ------------------------------------------------------------------
    def _scan_plan(self, query: TopKQuery) -> QueryResult:
        schema = self.table.schema
        result = QueryResult()
        topk: list[tuple[float, int]] = []
        for record in self.table.scan():
            tid, row = int(record[0]), record[1:]
            if not query.matches(schema, row):
                continue
            score = query.score_row(schema, row)
            result.tuples_examined += 1
            push_topk(topk, query.k, score, tid)
        result.blocks_accessed = self.table.heap.num_pages
        result.rows = _finish(topk, query, self.table)
        return result

    def _index_plan(self, query: TopKQuery, attr: str) -> QueryResult:
        schema = self.table.schema
        index = self.table.secondary_indexes[attr]
        rids = index.lookup(query.selections[attr])
        result = QueryResult()
        topk: list[tuple[float, int]] = []
        for rid in rids:
            record = self.table.fetch_by_rid(rid)
            result.blocks_accessed += 1
            tid, row = int(record[0]), record[1:]
            if not query.matches(schema, row):
                continue
            score = query.score_row(schema, row)
            result.tuples_examined += 1
            push_topk(topk, query.k, score, tid)
        result.rows = _finish(topk, query, self.table)
        return result


def _finish(
    topk: list[tuple[float, int]], query: TopKQuery, table: Table
) -> list[ResultRow]:
    rows = rows_from_heap(topk)
    if query.projection:
        schema = table.schema
        rows = [
            ResultRow(
                tid=row.tid,
                score=row.score,
                values=tuple(
                    table.fetch_by_tid(row.tid)[schema.position(name)]
                    for name in query.projection
                ),
            )
            for row in rows
        ]
    return rows
