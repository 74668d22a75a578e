"""The PREFER technique [Hristidis et al., reference [6] of the paper].

PREFER materializes a *ranked view*: tuples sorted by a reference linear
function ``f_v`` with positive weights.  A query function ``f_q`` (also
positive-linear over the same dimensions, values normalized to ``[0, 1]``)
is answered by scanning the view in ``f_v`` order while maintaining a
watermark: since

    f_q(t) = sum_i (wq_i / wv_i) * wv_i * t_i
           >= min_i(wq_i / wv_i) * f_v(t)          (all terms nonnegative)

every tuple at view position >= p satisfies
``f_q >= ratio * f_v(view[p])``, so the scan stops as soon as the k-th
best seen score is below that bound.

Like Onion, PREFER predates multi-dimensional selections: conditions are
filtered per scanned tuple with a heap fetch — the degradation the paper's
introduction calls out.  Views are stored through the paged storage layer
(a heap in ``f_v`` order), so scans cost sequential I/O like the original.
"""

from __future__ import annotations

from typing import Sequence

from ..ranking.functions import LinearFunction
from ..relational.query import (
    QueryError,
    QueryResult,
    TopKQuery,
    push_topk,
    rows_from_heap,
)
from ..relational.table import Table
from ..storage.heap import HeapFile
from ..storage.pages import RecordCodec


class PreferView:
    """A materialized ranked view over the relation's ranking dimensions.

    Parameters
    ----------
    table:
        Source relation.
    view_weights:
        Positive weights of the reference function ``f_v``; defaults to
        the balanced function (all ones).
    """

    def __init__(
        self,
        table: Table,
        ranking_dims: Sequence[str] | None = None,
        view_weights: Sequence[float] | None = None,
    ):
        self.table = table
        schema = table.schema
        if ranking_dims is None:
            ranking_dims = schema.ranking_names
        self.ranking_dims = tuple(ranking_dims)
        if view_weights is None:
            view_weights = [1.0] * len(self.ranking_dims)
        if len(view_weights) != len(self.ranking_dims):
            raise QueryError("one view weight per ranking dimension required")
        if any(w <= 0 for w in view_weights):
            raise QueryError("PREFER view weights must be positive")
        self.view_weights = tuple(float(w) for w in view_weights)

        positions = [schema.position(d) for d in self.ranking_dims]
        rows = []
        for record in table.scan():
            tid = int(record[0])
            values = tuple(float(record[1 + p]) for p in positions)
            view_score = sum(w * x for w, x in zip(self.view_weights, values))
            rows.append((view_score, tid, values))
        rows.sort()
        codec = RecordCodec("dq" + "d" * len(self.ranking_dims))
        self._view = HeapFile(table.pool, codec)
        self._view.extend(
            (view_score, tid, *values) for view_score, tid, values in rows
        )
        self._view.seal()

    # ------------------------------------------------------------------
    def execute(self, query: TopKQuery) -> QueryResult:
        """Watermark scan of the ranked view."""
        fn = query.ranking
        if not isinstance(fn, LinearFunction):
            raise QueryError("PREFER supports linear ranking functions only")
        if set(fn.dims) != set(self.ranking_dims):
            raise QueryError(
                f"view is ranked over {self.ranking_dims}; the query must "
                "rank over exactly those dimensions"
            )
        if any(w < 0 for w in fn.weights):
            raise QueryError("PREFER requires non-negative query weights")
        query.validate_against(self.table.schema)
        schema = self.table.schema

        # per-dimension weight ratio in *view* dimension order
        query_w = dict(zip(fn.dims, fn.weights))
        ratio = min(
            query_w[d] / wv for d, wv in zip(self.ranking_dims, self.view_weights)
        )
        value_positions = {d: i for i, d in enumerate(self.ranking_dims)}
        fn_positions = [value_positions[d] for d in fn.dims]

        result = QueryResult()
        topk: list[tuple[float, int]] = []
        for _rid, record in self._view.scan():
            view_score = float(record[0])
            tid = int(record[1])
            values = record[2:]
            watermark = fn.offset + ratio * view_score
            if len(topk) >= query.k and -topk[0][0] <= watermark:
                break
            if query.selections:
                row = self.table.fetch_by_tid(tid)
                result.blocks_accessed += 1
                if not query.matches(schema, row):
                    continue
            score = fn.score([values[p] for p in fn_positions])
            result.tuples_examined += 1
            push_topk(topk, query.k, score, tid)
        result.rows = rows_from_heap(topk)
        return result

    @property
    def size_in_bytes(self) -> int:
        return self._view.size_in_bytes

    def __len__(self) -> int:
        return len(self._view)
