"""The Onion technique [Chang et al., reference [8] of the paper].

Onion indexes data for *linear* top-k queries by peeling convex layers:
layer 1 is the convex hull of all points, layer 2 the hull of the rest,
and so on.  For a linear ranking function the best tuple of the whole
relation lies on layer 1, and — because every deeper point is inside the
hull of shallower layers — ``min over layer i`` lower-bounds every tuple
deeper than ``i``, giving a progressive algorithm with a sound stop
condition.

The paper's criticism (Section 1) is that Onion's "data organizations are
not aware of the multi-dimensional selection conditions": a selective
WHERE clause forces it to peel layer after layer hunting for qualifying
tuples.  This implementation exists to quantify that: it is faithful to
Onion for pure ranking queries and degrades exactly as described under
selections (see the ``extra_competitors`` experiment).

Layers are computed with scipy's ConvexHull when available, falling back
to an exact O(n^2) gift-wrapping-free reduction (repeated min/max hull
membership via linear programming is overkill; the fallback treats the
degenerate and tiny cases that QHull rejects).
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


class OnionIndex:
    """Convex-layer index over the relation's ranking dimensions.

    Parameters
    ----------
    table:
        Source relation; the index stores tids layer by layer and fetches
        tuples from the heap at query time (Onion stores records per layer;
        metering a heap fetch per examined tuple is the equivalent cost).
    ranking_dims:
        Dimensions spanned by the index (queries must rank on exactly a
        subset of these with linear functions).
    """

    def __init__(self, table: Table, ranking_dims: Sequence[str] | None = None):
        self.table = table
        schema = table.schema
        if ranking_dims is None:
            ranking_dims = schema.ranking_names
        self.ranking_dims = tuple(ranking_dims)
        positions = [schema.position(d) for d in self.ranking_dims]
        points: list[tuple[float, ...]] = []
        tids: list[int] = []
        for record in table.scan():
            tids.append(int(record[0]))
            points.append(tuple(float(record[1 + p]) for p in positions))
        self.layers: list[list[int]] = _peel_layers(points, tids)
        self._points = dict(zip(tids, points))

    # ------------------------------------------------------------------
    def execute(self, query: TopKQuery) -> QueryResult:
        """Progressive layer-by-layer top-k with selection filtering."""
        if not isinstance(query.ranking, LinearFunction):
            raise QueryError("Onion supports linear ranking functions only")
        unknown = set(query.ranking.dims) - set(self.ranking_dims)
        if unknown:
            raise QueryError(f"Onion index lacks ranking dimensions {sorted(unknown)}")
        query.validate_against(self.table.schema)
        schema = self.table.schema
        fn = query.ranking
        positions = {d: i for i, d in enumerate(self.ranking_dims)}
        fn_positions = [positions[d] for d in fn.dims]

        result = QueryResult()
        topk: list[tuple[float, int]] = []
        for layer in self.layers:
            layer_min = float("inf")
            for tid in layer:
                point = self._points[tid]
                score = fn.score([point[p] for p in fn_positions])
                layer_min = min(layer_min, score)
                # the selection filter needs the full tuple: a heap fetch,
                # the cost Onion pays for ignoring selections
                if query.selections:
                    row = self.table.fetch_by_tid(tid)
                    result.blocks_accessed += 1
                    if not query.matches(schema, row):
                        continue
                result.tuples_examined += 1
                push_topk(topk, query.k, score, tid)
            # min over this layer lower-bounds everything deeper
            if len(topk) >= query.k and -topk[0][0] <= layer_min:
                break
        result.rows = rows_from_heap(topk)
        return result

    @property
    def num_layers(self) -> int:
        return len(self.layers)


def _peel_layers(
    points: Sequence[tuple[float, ...]], tids: Sequence[int]
) -> list[list[int]]:
    """Assign every tid to its convex layer, shallowest first."""
    remaining = list(range(len(points)))
    layers: list[list[int]] = []
    while remaining:
        hull = _hull_indices([points[i] for i in remaining])
        layer = [remaining[i] for i in hull]
        layers.append([tids[i] for i in layer])
        chosen = set(layer)
        remaining = [i for i in remaining if i not in chosen]
    return layers


def _hull_indices(points: list[tuple[float, ...]]) -> list[int]:
    """Indices of points on the convex hull.

    Tiny or degenerate (collinear/duplicate-heavy) inputs return *all*
    indices: a layer containing everything is trivially sound for the
    stop condition — the progressive benefit is lost, never correctness.
    """
    if len(points) <= max(3, len(points[0]) + 1):
        return list(range(len(points)))
    try:
        from scipy.spatial import ConvexHull, QhullError
    except ImportError:  # pragma: no cover - scipy is a dev dependency
        return list(range(len(points)))
    try:
        hull = ConvexHull(points)
        return sorted(set(int(v) for v in hull.vertices))
    except QhullError:
        return list(range(len(points)))
