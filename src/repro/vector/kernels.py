"""Batched kernels over columnar blocks.

Every kernel is *bitwise-equivalent* to the row executor's scalar code —
same IEEE-754 operations in the same order per element.  The one place
where naive vectorization would break that contract is ``pow``: NumPy's
vectorized ``power`` is not bit-compatible with CPython's ``**``
(measured ~0.1% one-ulp drift on this class of inputs), which is why
:class:`repro.ranking.functions.LpDistance` computes its p=1/p=2
families with plain abs/multiply in both forms and falls back to a
scalar loop for general exponents.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .layout import ColumnarBlock


def decode_block(records, num_dims: int) -> ColumnarBlock:
    """Row records -> columnar block (see :meth:`ColumnarBlock.from_records`)."""
    return ColumnarBlock.from_records(records, num_dims)


def gather_columns(
    block: ColumnarBlock, positions: Sequence[int], indices=None
) -> list:
    """The ranking-dimension columns of a block, optionally row-filtered."""
    cols = [block.columns[p] for p in positions]
    if indices is None:
        return cols
    return [col[indices] for col in cols]


def gather_tids(block: ColumnarBlock, indices=None):
    """The tid column, row-filtered to match :func:`gather_columns`."""
    if indices is None:
        return block.tids
    return block.tids[indices]


def eval_scores(fn, block: ColumnarBlock, positions: Sequence[int], indices=None):
    """Batched ranking-function evaluation over one block.

    Returns one score per (selected) tuple, bitwise-identical to scoring
    each tuple with ``fn.score`` — the delegation target,
    :meth:`repro.ranking.functions.RankingFunction.eval_batch`, owns that
    contract per function family.
    """
    return fn.eval_batch(gather_columns(block, positions, indices))


def topk_select(scores, tids, k: int | None) -> list[tuple[float, int]]:
    """The block's best ``k`` ``(score, tid)`` pairs, ties tid-ascending.

    Implements the frontier-scoring tie contract with a *stable* batched
    sort: ``lexsort`` with tid as the secondary key, so tuples sharing a
    score come out smallest-tid-first — exactly the order the row
    executor's heap retains (see ``push_topk``).  ``k=None`` returns
    every pair, still fully ordered.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if len(scores) == 0:
        return []
    order = np.lexsort((tids, scores))
    if k is not None:
        order = order[:k]
    return list(zip(scores[order].tolist(), tids[order].tolist()))
