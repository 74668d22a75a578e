"""Columnar (struct-of-arrays) layout for base blocks.

A :class:`ColumnarBlock` holds one base block's tuples decomposed into a
tid column plus one value column per ranking dimension, instead of the
row format's ``[(tid, (v0, v1, ...)), ...]`` list of per-tuple objects.
The batched kernels in :mod:`repro.vector.kernels` operate on these
columns directly, so scoring a block touches R contiguous buffers
instead of N boxed tuples.

Columns are NumPy ``float64`` / ``int64`` arrays, and the round trip
``ColumnarBlock.from_records(rs).to_records() == rs`` holds exactly
(float64 columns preserve every bit of the stored binary64 values).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np


class ColumnarBlock:
    """One base block in struct-of-arrays form.

    Attributes
    ----------
    tids:
        Tuple ids, in the block's storage order (``int64`` ndarray).
    columns:
        One ``float64`` ndarray per ranking dimension, aligned with
        ``tids``, ordered as the grid's dimensions.
    """

    __slots__ = ("tids", "columns")

    def __init__(self, tids, columns: Sequence):
        self.tids = tids
        self.columns = tuple(columns)

    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Iterable[tuple[int, tuple[float, ...]]], num_dims: int
    ) -> "ColumnarBlock":
        """Decode the row format of ``BaseBlockTable.get_base_block``.

        ``num_dims`` fixes the column count so an empty block still has
        the right shape.
        """
        records = records if isinstance(records, list) else list(records)
        n = len(records)
        tids = np.fromiter((r[0] for r in records), dtype=np.int64, count=n)
        if n:
            values = np.array([r[1] for r in records], dtype=np.float64)
            columns = [np.ascontiguousarray(values[:, d]) for d in range(num_dims)]
        else:
            columns = [np.empty(0, dtype=np.float64) for _ in range(num_dims)]
        return cls(tids, columns)

    def to_records(self) -> list[tuple[int, tuple[float, ...]]]:
        """The row format back out (exact inverse of :meth:`from_records`)."""
        cols = [col.tolist() for col in self.columns]
        return [
            (tid, tuple(col[i] for col in cols))
            for i, tid in enumerate(self.tids.tolist())
        ]

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.tids)

    @property
    def num_dims(self) -> int:
        return len(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarBlock(n={len(self)}, dims={self.num_dims})"
