"""Multi-dimensional composite index.

Models the rank-mapping baseline's index: a clustered B+-tree whose keys
concatenate selection dimensions first, ranking dimensions after (the
"dimension order in the index is first the selection dimensions and then
the ranking dimensions" configuration from Section 5.1.2), with the tid as
a final uniquifier.  Ranking values ride inside the key, so a range scan
returns everything the rank-mapping executor needs without heap fetches —
the most favorable realistic treatment of that baseline.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..storage.buffer import BufferPool
from .bptree import BPlusTree

_NEG_INF = float("-inf")
_POS_INF = float("inf")


class CompositeIndex:
    """Clustered index over ``(selection dims..., ranking dims..., tid)``.

    Parameters
    ----------
    pool:
        Buffer pool of the shared device.
    selection_dims / ranking_dims:
        Attribute names in index order.
    """

    def __init__(
        self,
        pool: BufferPool,
        selection_dims: Sequence[str],
        ranking_dims: Sequence[str],
    ):
        self.pool = pool
        self.selection_dims = tuple(selection_dims)
        self.ranking_dims = tuple(ranking_dims)
        self._tree = BPlusTree(pool)

    # ------------------------------------------------------------------
    def build(self, rows: Iterable[tuple[tuple, tuple, int]]) -> None:
        """Bulk build from ``(selection values, ranking values, tid)`` rows."""
        # one component type per key position, as the tree's page format needs
        keys = sorted(
            (*map(int, sel), *map(float, rank), int(tid)) for sel, rank, tid in rows
        )
        self._tree.bulk_load((key, key[-1]) for key in keys)

    def range_query(
        self,
        selections: Sequence[int],
        ranking_lo: Sequence[float] | None = None,
        ranking_hi: Sequence[float] | None = None,
    ) -> Iterator[tuple[int, tuple[float, ...]]]:
        """Yield ``(tid, ranking values)`` matching the index prefix + range.

        ``selections`` must bind every selection dimension of the index (a
        partial prefix is allowed only from the left — exactly the
        limitation Figure 9/14 exposes for the RM approach; see
        :meth:`prefix_range_query`).  Bounds on ranking dimensions beyond
        the first can only be applied as filters, which is how real
        composite B-trees behave.
        """
        return self.prefix_range_query(
            dict(zip(self.selection_dims, selections)), ranking_lo, ranking_hi
        )

    def prefix_range_query(
        self,
        selections: dict[str, int],
        ranking_lo: Sequence[float] | None = None,
        ranking_hi: Sequence[float] | None = None,
    ) -> Iterator[tuple[int, tuple[float, ...]]]:
        """Range query binding a subset of selection dims by name.

        Only the longest *leading* run of bound dims narrows the scan; any
        unbound dim forces the remaining components (including all ranking
        bounds) to act as post-filters over the scanned range.
        """
        num_sel = len(self.selection_dims)
        lo_key: list = []
        hi_key: list = []
        prefix_len = 0
        for dim in self.selection_dims:
            if dim in selections:
                value = int(selections[dim])
                lo_key.append(value)
                hi_key.append(value)
                prefix_len += 1
            else:
                break
        # pad the unbound tail of the key with -inf / +inf
        lo_key.extend([_NEG_INF] * (num_sel - prefix_len))
        hi_key.extend([_POS_INF] * (num_sel - prefix_len))
        if prefix_len == num_sel and ranking_lo is not None:
            # the first ranking dim's bound can narrow the scan too
            lo_key.append(float(ranking_lo[0]))
            hi_key.append(float(ranking_hi[0]) if ranking_hi else _POS_INF)
        lo_key.extend([_NEG_INF] * (len(self.ranking_dims) + 1 - (len(lo_key) - num_sel)))
        hi_key.extend([_POS_INF] * (len(self.ranking_dims) + 1 - (len(hi_key) - num_sel)))

        residual = {
            dim: selections[dim]
            for dim in self.selection_dims[prefix_len:]
            if dim in selections
        }
        for key, _value in self._tree.range_scan(tuple(lo_key), tuple(hi_key), include_hi=True):
            sel_part = key[:num_sel]
            rank_part = key[num_sel:-1]
            tid = key[-1]
            if any(
                sel_part[self.selection_dims.index(dim)] != value
                for dim, value in residual.items()
            ):
                continue
            if ranking_lo is not None and any(
                r < lo for r, lo in zip(rank_part, ranking_lo)
            ):
                continue
            if ranking_hi is not None and any(
                r > hi for r, hi in zip(rank_part, ranking_hi)
            ):
                continue
            yield int(tid), tuple(float(r) for r in rank_part)

    # ------------------------------------------------------------------
    @property
    def size_in_bytes(self) -> int:
        return self._tree.size_in_bytes

    def __len__(self) -> int:
        return len(self._tree)
