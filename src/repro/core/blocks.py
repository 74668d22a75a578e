"""Block grids: the geometry partition underlying the ranking cube.

A :class:`BlockGrid` is the meta information ``M`` of Section 3.1.3: per
ranking dimension, a strictly increasing list of bin boundaries.  Base
blocks (Section 3.1.2) are the grid cells; block ids (*bid*) enumerate them
in row-major order with the first ranking dimension varying fastest, which
matches the paper's running example (the four blocks of the first row are
b1..b4, the next row b5..b8, ...).

The grid answers the geometric questions the query algorithm asks:

* which block contains a point (``locate``),
* what axis-aligned box a block covers (``box``),
* which blocks are (face-)adjacent to a block (``neighbors`` — the
  ``neighbor(b, c)`` relation of Lemma 1).

The answers are *compiled*: bins, strides and the block count are derived
once at construction, and per-block coordinates, neighbor tuples and boxes
are tabulated on first touch, so the frontier loop of Section 3.2 looks
geometry up instead of re-deriving it (DESIGN.md section 3, "grid geometry
is compiled, not computed").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class GridError(Exception):
    """Raised for malformed grids or out-of-range block ids."""


@dataclass(frozen=True)
class BlockGrid:
    """An axis-aligned grid over the space of ranking dimensions.

    Parameters
    ----------
    dims:
        Names of the ranking dimensions, in storage order.
    boundaries:
        One strictly increasing boundary list per dimension; dimension ``d``
        with boundaries ``[e0, e1, .., eb]`` has ``b`` bins, bin ``i``
        covering ``[e_i, e_{i+1}]`` (closed boxes — the shared faces make
        Lemma 1's face-adjacent frontier sound for convex functions).
    """

    dims: tuple[str, ...]
    boundaries: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.boundaries):
            raise GridError("one boundary list per dimension required")
        if not self.dims:
            raise GridError("grid needs at least one dimension")
        for dim, edges in zip(self.dims, self.boundaries):
            if len(edges) < 2:
                raise GridError(f"dimension {dim!r} needs >= 2 boundaries")
            if any(a >= b for a, b in zip(edges, edges[1:])):
                raise GridError(f"boundaries of {dim!r} must be strictly increasing")
        self._compile()

    # ------------------------------------------------------------------
    # derived geometry (never part of the value)
    # ------------------------------------------------------------------
    def _compile(self) -> None:
        """Derive the shape eagerly and start the first-touch tables empty.

        The derived attributes are not dataclass fields, so ``==``, ``hash``
        and ``repr`` never see them, and :meth:`__getstate__` keeps them out
        of pickles.  Every table holds entries for valid bids only and is
        therefore bounded by ``num_blocks``.  Concurrent first touches may
        both compute an entry; the values are deterministic and a dict
        store is atomic, so the race is benign.
        """
        bins = tuple(len(edges) - 1 for edges in self.boundaries)
        strides = []
        stride = 1
        for count in bins:
            strides.append(stride)
            stride *= count
        derived = self.__dict__  # frozen: bypass __setattr__, as dataclasses do
        derived["_bins"] = bins
        derived["_strides"] = tuple(strides)
        derived["_num_blocks"] = stride
        derived["_coords"] = {}      # bid -> coords
        derived["_neighbors"] = {}   # bid -> face-adjacent bids
        derived["_boxes"] = {}       # bid -> (lower, upper)
        derived["_sub_boxes"] = {}   # positions -> {bid -> (lower, upper)}
        derived["_coord_arrays"] = None  # per dimension: every bid's coordinate

    def __getstate__(self) -> dict:
        return {"dims": self.dims, "boundaries": self.boundaries}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._compile()

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_dims(self) -> int:
        return len(self.dims)

    @property
    def bins_per_dim(self) -> tuple[int, ...]:
        return self._bins

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    # ------------------------------------------------------------------
    # bid <-> coordinates
    # ------------------------------------------------------------------
    def bid_of(self, coords: Sequence[int]) -> int:
        """Row-major block id of grid coordinates (dim 0 fastest)."""
        bins = self._bins
        if len(coords) != len(bins):
            raise GridError(f"expected {len(bins)} coordinates, got {len(coords)}")
        bid = 0
        for coord, bin_count, stride in zip(coords, bins, self._strides):
            if not 0 <= coord < bin_count:
                raise GridError(f"coordinate {coord} out of range [0, {bin_count})")
            bid += coord * stride
        return bid

    @property
    def coord_arrays(self) -> tuple[np.ndarray, ...]:
        """Per dimension, the coordinate of every bid (row-major), for
        whole-grid arithmetic; computed on first use."""
        if self._coord_arrays is None:
            bids = np.arange(self._num_blocks)
            self.__dict__["_coord_arrays"] = tuple(
                bids // stride % count
                for count, stride in zip(self._bins, self._strides)
            )
        return self._coord_arrays

    def coords_of(self, bid: int) -> tuple[int, ...]:
        """Grid coordinates of a block id."""
        try:
            return self._coords[bid]
        except KeyError:
            pass
        if not 0 <= bid < self._num_blocks:
            raise GridError(f"bid {bid} out of range [0, {self._num_blocks})")
        rest = bid
        coords = []
        for bins in self._bins:
            coords.append(rest % bins)
            rest //= bins
        self._coords[bid] = result = tuple(coords)
        return result

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def locate(self, point: Sequence[float]) -> int:
        """Block id of the bin containing ``point``.

        Points on an interior boundary go to the higher bin (half-open
        binning); points outside the grid clamp to the nearest edge bin, so
        every tuple gets a bid even if it strays past the boundaries the
        partitioner observed.
        """
        coords = []
        for value, edges in zip(point, self.boundaries):
            idx = bisect.bisect_right(edges, value) - 1
            idx = min(max(idx, 0), len(edges) - 2)
            coords.append(idx)
        return self.bid_of(coords)

    def locate_many(self, points) -> np.ndarray:
        """Vectorized :meth:`locate` over many points.

        ``points`` is a sequence of R-tuples (or an ``(n, R)`` array);
        returns an int64 array of one bid per point, with the semantics of
        :meth:`locate` (half-open bins, clamped extremes).  Used by the
        bulk cube build, where per-tuple Python bisects dominate.
        """
        array = np.asarray(points, dtype=float)
        if array.ndim != 2 or array.shape[1] != self.num_dims:
            raise GridError(
                f"expected an (n, {self.num_dims}) point array, got {array.shape}"
            )
        bids = np.zeros(len(array), dtype=np.int64)
        for d, edges in enumerate(self.boundaries):
            edges_arr = np.asarray(edges)
            coords = np.searchsorted(edges_arr, array[:, d], side="right") - 1
            np.clip(coords, 0, self._bins[d] - 1, out=coords)
            bids += coords * self._strides[d]
        return bids

    def box(self, bid: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Closed box ``(lower, upper)`` covered by a block."""
        try:
            return self._boxes[bid]
        except KeyError:
            pass
        coords = self.coords_of(bid)
        lower = tuple(
            edges[c] for c, edges in zip(coords, self.boundaries)
        )
        upper = tuple(
            edges[c + 1] for c, edges in zip(coords, self.boundaries)
        )
        self._boxes[bid] = result = (lower, upper)
        return result

    def full_box(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The box covering the whole grid."""
        return (
            tuple(edges[0] for edges in self.boundaries),
            tuple(edges[-1] for edges in self.boundaries),
        )

    def neighbors(self, bid: int) -> tuple[int, ...]:
        """Face-adjacent blocks (differ by one step along one dimension).

        Ordered by dimension, the lower neighbor before the higher one.
        """
        try:
            return self._neighbors[bid]
        except KeyError:
            pass
        found = []
        for coord, bins, stride in zip(
            self.coords_of(bid), self._bins, self._strides
        ):
            if coord > 0:
                found.append(bid - stride)
            if coord + 1 < bins:
                found.append(bid + stride)
        self._neighbors[bid] = result = tuple(found)
        return result

    def project(self, dims: Sequence[str]) -> tuple[int, ...]:
        """Positions of ``dims`` within the grid's dimension order."""
        positions = []
        for dim in dims:
            try:
                positions.append(self.dims.index(dim))
            except ValueError:
                raise GridError(f"grid has no dimension {dim!r}") from None
        return tuple(positions)

    def sub_box(
        self, bid: int, dim_positions: Sequence[int]
    ) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """A block's box restricted to the given dimension positions.

        Used when a query ranks on a subset of the grid's dimensions
        (Figure 6's r < R setting): the lower bound of f over the block
        only involves the dimensions f reads.
        """
        positions = tuple(dim_positions)
        try:
            return self._sub_boxes[positions][bid]
        except KeyError:
            pass
        lower, upper = self.box(bid)
        result = (
            tuple(lower[p] for p in positions),
            tuple(upper[p] for p in positions),
        )
        self._sub_boxes.setdefault(positions, {})[bid] = result
        return result
