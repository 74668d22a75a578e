"""Ranking fragments (Section 4): semi-materialization for high dimensionality.

A full ranking cube materializes ``2^S - 1`` cuboids — hopeless for the
S >= 10 regime the paper targets.  Ranking fragments instead split the
selection dimensions into groups of size ``F`` and materialize a full cube
*within* each group, sharing one base block table.  Space grows linearly in
S (Lemma 2) while any query is answerable by intersecting tid lists from a
small covering set of cuboids (semi-online computation).

This module provides the grouping policy, the Lemma 2 space estimate, and
:class:`FragmentedRankingCube`, a :class:`RankingCube` whose cuboid family
is the union of the per-fragment full cubes.  Query execution is the
ordinary :class:`~repro.core.executor.RankingCubeExecutor`: the covering
cuboid selection and the intersecting retrieve step already implement
Section 4.2.
"""

from __future__ import annotations

from typing import Sequence

from ..relational.table import Table
from .blocks import BlockGrid
from .cube import DEFAULT_BLOCK_SIZE, CubeError, RankingCube, full_cube_sets
from .partition import Partitioner


def evenly_partition(dims: Sequence[str], fragment_size: int) -> list[tuple[str, ...]]:
    """Split ``dims`` into ``ceil(S / F)`` contiguous fragments (Section 4.1).

    The last fragment may be smaller when ``F`` does not divide ``S``.
    """
    if fragment_size < 1:
        raise ValueError(f"fragment size must be >= 1, got {fragment_size}")
    dims = tuple(dims)
    if not dims:
        raise ValueError("cannot fragment an empty dimension list")
    return [
        dims[start:start + fragment_size]
        for start in range(0, len(dims), fragment_size)
    ]


def fragment_cuboid_sets(
    fragments: Sequence[Sequence[str]],
) -> list[tuple[str, ...]]:
    """All cuboid dimension sets materialized by a fragment family."""
    sets: list[tuple[str, ...]] = []
    seen: set[frozenset] = set()
    for fragment in fragments:
        for dims in full_cube_sets(fragment):
            key = frozenset(dims)
            if key not in seen:
                seen.add(key)
                sets.append(dims)
    return sets


def estimated_fragment_space(
    num_selection_dims: int,
    num_ranking_dims: int,
    num_tuples: int,
    fragment_size: int,
) -> int:
    """Lemma 2's space bound, in tuple-entry units.

    ``O((S / F) * T * (2^F - 1) + (R + 2) * T)``: each of the ``S/F``
    fragments holds ``2^F - 1`` cuboids of ``T`` entries each, plus the base
    block table of ``T`` rows over ``R`` ranking dims, a bid and a tid.
    """
    num_fragments = -(-num_selection_dims // fragment_size)
    cuboid_entries = num_fragments * num_tuples * (2 ** fragment_size - 1)
    base_entries = (num_ranking_dims + 2) * num_tuples
    return cuboid_entries + base_entries


class FragmentedRankingCube(RankingCube):
    """A ranking cube materialized as ranking fragments."""

    def __init__(
        self,
        grid: BlockGrid,
        base_table,
        cuboids,
        block_size: int,
        fragments: Sequence[tuple[str, ...]],
    ):
        super().__init__(grid, base_table, cuboids, block_size)
        self.fragments = list(fragments)

    @classmethod
    def build_fragments(
        cls,
        table: Table,
        fragment_size: int = 2,
        ranking_dims: Sequence[str] | None = None,
        selection_dims: Sequence[str] | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        partitioner: Partitioner | None = None,
        fragments: Sequence[Sequence[str]] | None = None,
        tracer=None,
    ) -> "FragmentedRankingCube":
        """Materialize ranking fragments over a loaded table.

        ``fragments`` overrides the even grouping when the caller wants a
        workload-aware grouping (Section 6 discusses such criteria).
        """
        schema = table.schema
        if selection_dims is None:
            selection_dims = schema.selection_names
        if fragments is None:
            fragments = evenly_partition(selection_dims, fragment_size)
        else:
            fragments = [tuple(f) for f in fragments]
            flattened = [dim for fragment in fragments for dim in fragment]
            if len(set(flattened)) != len(flattened):
                raise CubeError("fragments must be disjoint")
            missing = set(selection_dims) - set(flattened)
            if missing:
                raise CubeError(f"fragments omit selection dimensions {sorted(missing)}")
        base = RankingCube.build(
            table,
            ranking_dims=ranking_dims,
            selection_dims=selection_dims,
            block_size=block_size,
            partitioner=partitioner,
            cuboid_sets=fragment_cuboid_sets(fragments),
            tracer=tracer,
        )
        return cls(
            base.grid, base.base_table, base.cuboids, base.block_size, fragments
        )

    @property
    def fragment_size(self) -> int:
        return max(len(fragment) for fragment in self.fragments)

    def fragment_of(self, dim: str) -> tuple[str, ...]:
        """The fragment containing a selection dimension."""
        for fragment in self.fragments:
            if dim in fragment:
                return fragment
        raise CubeError(f"dimension {dim!r} is in no fragment")

    def covering_fragment_count(self, query_dims: Sequence[str]) -> int:
        """How many distinct fragments a query's dimensions touch."""
        return len({self.fragment_of(dim) for dim in query_dims})
