"""Batched kernels over columnar blocks.

Every kernel is *bitwise-equivalent* to the row executor's scalar code —
same IEEE-754 operations in the same order per element — so the vector
executor can substitute them under the byte-identical-answers contract.
The one place where naive vectorization would break that contract is
``pow``: NumPy's vectorized ``power`` is not bit-compatible with
CPython's ``**`` (measured ~0.1% one-ulp drift on this class of inputs),
which is why :class:`repro.ranking.functions.LpDistance` computes its
p=1/p=2 families with plain abs/multiply in both forms and falls back to
a scalar loop for general exponents.

Kernels dispatch on the active backend at call time (see
:func:`repro.vector.layout.numpy_or_none`): NumPy arrays when available,
stdlib buffers + loops otherwise.  Either backend returns the same
logical values.
"""

from __future__ import annotations

from typing import Sequence

from .layout import ColumnarBlock, numpy_or_none


def decode_block(records, num_dims: int) -> ColumnarBlock:
    """Row records -> columnar block (see :meth:`ColumnarBlock.from_records`)."""
    return ColumnarBlock.from_records(records, num_dims)


def apply_selection(block: ColumnarBlock, qualifying) -> "object | None":
    """Positions of ``block.tids`` that survive a tid-set selection.

    ``qualifying=None`` (no selection conditions) returns ``None`` —
    "every tuple", with no mask materialized.  Otherwise returns the
    indices of qualifying tuples in block order (an ``int64`` array under
    NumPy, a list under the fallback); the bitmask itself is an
    implementation detail of the NumPy path (``isin`` + ``nonzero``).
    """
    if qualifying is None:
        return None
    np = numpy_or_none()
    tids = block.tids
    if np is not None and isinstance(tids, np.ndarray):
        if not qualifying:
            return np.empty(0, dtype=np.int64)
        wanted = np.fromiter(qualifying, dtype=np.int64, count=len(qualifying))
        mask = np.isin(tids, wanted)
        return np.nonzero(mask)[0]
    return [i for i, tid in enumerate(tids) if tid in qualifying]


def gather_columns(
    block: ColumnarBlock, positions: Sequence[int], indices=None
) -> list:
    """The ranking-dimension columns of a block, optionally row-filtered."""
    np = numpy_or_none()
    cols = [block.columns[p] for p in positions]
    if indices is None:
        return cols
    if np is not None and isinstance(block.tids, np.ndarray):
        return [col[indices] for col in cols]
    return [[col[i] for i in indices] for col in cols]


def gather_tids(block: ColumnarBlock, indices=None):
    """The tid column, row-filtered to match :func:`gather_columns`."""
    np = numpy_or_none()
    if indices is None:
        return block.tids
    if np is not None and isinstance(block.tids, np.ndarray):
        return block.tids[indices]
    return [block.tids[i] for i in indices]


def eval_scores(fn, block: ColumnarBlock, positions: Sequence[int], indices=None):
    """Batched ranking-function evaluation over one block.

    Returns one score per (selected) tuple, bitwise-identical to scoring
    each tuple with ``fn.score`` — the delegation target,
    :meth:`repro.ranking.functions.RankingFunction.eval_batch`, owns that
    contract per function family.
    """
    return fn.eval_batch(gather_columns(block, positions, indices))


def block_bounds(
    grid, bids: Sequence[int], fn, positions: Sequence[int]
) -> list[float]:
    """Batched corner bounds ``f(bid)`` for many blocks at once.

    Gathers every bid's sub-box (restricted to the ranking dimensions)
    from the grid's compiled tables via :meth:`BlockGrid.sub_box`, stacks
    them per dimension and hands them to ``fn.min_over_boxes``.  The box
    edges are the scalar path's own floats, so the bounds match it bit
    for bit.
    """
    if not bids:
        return []
    boxes = [grid.sub_box(bid, positions) for bid in bids]
    np = numpy_or_none()
    if np is None:
        return [float(fn.min_over_box(lower, upper)) for lower, upper in boxes]
    lowers = [
        np.array(edges, dtype=np.float64)
        for edges in zip(*(lower for lower, _ in boxes))
    ]
    uppers = [
        np.array(edges, dtype=np.float64)
        for edges in zip(*(upper for _, upper in boxes))
    ]
    bounds = fn.min_over_boxes(lowers, uppers)
    return [float(b) for b in bounds]


def topk_select(scores, tids, k: int | None) -> list[tuple[float, int]]:
    """The block's best ``k`` ``(score, tid)`` pairs, ties tid-ascending.

    Implements the frontier-scoring tie contract with a *stable* batched
    sort: ``lexsort`` with tid as the secondary key, so tuples sharing a
    score come out smallest-tid-first — exactly the order the row
    executor's heap retains (see ``push_topk``).  ``k=None`` returns
    every pair, still fully ordered.

    Only the best ``k`` of a block can ever enter the global top-k, so
    truncation here never changes an answer — it only spares the merger
    per-tuple heap work.
    """
    np = numpy_or_none()
    if np is not None and isinstance(scores, np.ndarray):
        n = len(scores)
        if n == 0:
            return []
        order = np.lexsort((tids, scores))
        if k is not None and k < n:
            order = order[:k]
        return list(zip(scores[order].tolist(), tids[order].tolist()))
    pairs = sorted(zip(scores, tids))
    if k is not None:
        pairs = pairs[:k]
    return [(float(score), int(tid)) for score, tid in pairs]
