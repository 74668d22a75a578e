"""Columnar block layout and batched NumPy kernels.

A struct-of-arrays *columnar* layout for base blocks
(:mod:`repro.vector.layout`) plus batched kernels over whole blocks
(:mod:`repro.vector.kernels`): decode, score evaluation and top-k
selection, each bitwise-identical to the row executor's scalar
arithmetic (see ``tests/vector/``).

The executor does not use them.  A query scores about one qualifying
tuple per base block it examines, too few for a batch to amortize, so
the columnar engine that once ran on these kernels lost to the row loop
on every workload and was removed.  The ledger's ``kernel_micro``
(``benchmarks/ledger/stack.py``) measures the kernels beside row
scoring, per tuple and per block.
"""

from .layout import ColumnarBlock
from .kernels import decode_block, eval_scores, gather_tids, topk_select

__all__ = [
    "ColumnarBlock",
    "decode_block",
    "eval_scores",
    "gather_tids",
    "topk_select",
]
