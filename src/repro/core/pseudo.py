"""Pseudo blocks (Section 3.1.3).

Multi-dimensional cubing spreads each logical base block's tuples over many
cells, leaving cells far emptier than a physical block.  The pseudo block
re-aggregates: within a cuboid whose selection dimensions have
cardinalities ``c1..cs``, every ``sf`` adjacent bins per ranking dimension
merge into one pseudo block, with the scale factor chosen so a cell's
expected occupancy returns to the physical block size::

    (P / prod(c_j)) * sf ** R = P   =>   sf = ceil(prod(c_j) ** (1 / R))

The paper's Example 3 (cardinalities 2 and 2, R=2) gives ``sf = 2``, which
this module reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import BlockGrid, GridError


def scale_factor(cardinalities: Sequence[int], num_ranking_dims: int) -> int:
    """Pseudo-block scale factor for a cuboid (Section 3.1.3)."""
    if num_ranking_dims <= 0:
        raise ValueError("need at least one ranking dimension")
    product = 1
    for cardinality in cardinalities:
        if cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {cardinality}")
        product *= cardinality
    if product <= 1:
        return 1
    return max(1, math.ceil(product ** (1.0 / num_ranking_dims) - 1e-9))


@dataclass(frozen=True)
class PseudoBlockMap:
    """bid -> pid mapping for one cuboid.

    Merges every ``sf`` bins per dimension of ``grid``; pids enumerate the
    coarsened grid in the same row-major order as bids.
    """

    grid: BlockGrid
    sf: int

    def __post_init__(self) -> None:
        if self.sf < 1:
            raise GridError(f"scale factor must be >= 1, got {self.sf}")
        self._compile()

    def _compile(self) -> None:
        """Derive the coarse shape; start the bid -> pid table empty.

        Same contract as :meth:`BlockGrid._compile`: derived attributes are
        not fields, stay out of pickles, and the first-touch table is
        bounded by the grid's block count.
        """
        pbins = tuple(-(-bins // self.sf) for bins in self.grid.bins_per_dim)
        total = 1
        for count in pbins:
            total *= count
        derived = self.__dict__  # frozen: bypass __setattr__, as dataclasses do
        derived["_pbins"] = pbins
        derived["_num_pseudo_blocks"] = total
        derived["_pids"] = {}  # bid -> pid
        derived["_pid_array"] = None  # every bid's pid
        derived["_coarse"] = None  # the pseudo blocks as a grid

    def __getstate__(self) -> dict:
        return {"grid": self.grid, "sf": self.sf}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compile()

    @property
    def pbins_per_dim(self) -> tuple[int, ...]:
        return self._pbins

    @property
    def num_pseudo_blocks(self) -> int:
        return self._num_pseudo_blocks

    def pid_of_bid(self, bid: int) -> int:
        """Pseudo block containing base block ``bid``."""
        try:
            return self._pids[bid]
        except KeyError:
            pass
        pid = 0
        stride = 1
        for coord, pbins in zip(self.grid.coords_of(bid), self._pbins):
            pid += (coord // self.sf) * stride
            stride *= pbins
        self._pids[bid] = pid
        return pid

    @property
    def pid_array(self) -> np.ndarray:
        """Every bid's pid, for whole-grid arithmetic; computed on first
        use."""
        if self._pid_array is None:
            pid, stride = 0, 1
            for coord, pbins in zip(self.grid.coord_arrays, self._pbins):
                pid = pid + coord // self.sf * stride
                stride *= pbins
            self.__dict__["_pid_array"] = pid
        return self._pid_array

    @property
    def coarse(self) -> BlockGrid:
        """The pseudo blocks as a grid of their own: every ``sf``-th
        boundary of each dimension, plus the last.  Pid ``p`` is block
        ``p`` of this grid, so its ``coords_of`` are :meth:`pcoords_of_pid`
        and its ``neighbors`` are the face-adjacent pseudo blocks — the
        coarse level the query's frontier walks (Lemma 1 holds on any box
        grid).  Built on first use."""
        if self._coarse is None:
            sf = self.sf
            boundaries = []
            for edges in self.grid.boundaries:
                coarse = tuple(edges[::sf])
                if (len(edges) - 1) % sf:  # a partial last pseudo bin
                    coarse += (edges[-1],)
                boundaries.append(coarse)
            self.__dict__["_coarse"] = BlockGrid(self.grid.dims, tuple(boundaries))
        return self._coarse

    def pcoords_of_pid(self, pid: int) -> tuple[int, ...]:
        if not 0 <= pid < self._num_pseudo_blocks:
            raise GridError(f"pid {pid} out of range [0, {self._num_pseudo_blocks})")
        coords = []
        for pbins in self._pbins:
            coords.append(pid % pbins)
            pid //= pbins
        return tuple(coords)

    def bids_of_pid(self, pid: int) -> list[int]:
        """All base blocks merged into pseudo block ``pid``."""
        pcoords = self.pcoords_of_pid(pid)
        ranges = []
        for pcoord, bins in zip(pcoords, self.grid.bins_per_dim):
            start = pcoord * self.sf
            ranges.append(range(start, min(start + self.sf, bins)))
        bids: list[int] = []
        coords = [r.start for r in ranges]
        # odometer over the per-dimension coordinate ranges
        while True:
            bids.append(self.grid.bid_of(coords))
            for d in range(len(ranges)):
                coords[d] += 1
                if coords[d] < ranges[d].stop:
                    break
                coords[d] = ranges[d].start
            else:
                break
        return sorted(bids)

    @classmethod
    def for_cuboid(
        cls, grid: BlockGrid, cardinalities: Sequence[int]
    ) -> "PseudoBlockMap":
        """The map a cuboid with the given cell cardinalities should use."""
        return cls(grid, scale_factor(cardinalities, grid.num_dims))
