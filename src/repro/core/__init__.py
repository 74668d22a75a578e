"""The ranking cube: the paper's primary contribution.

Geometry partitioning (Section 3.1.2), pseudo blocks and rank-aware
cuboids (Section 3.1.3), the progressive query algorithm (Section 3.2),
and ranking fragments for high-dimensional data (Section 4).
"""

from .advisor import FragmentDesign, Recommendation, recommend_fragments
from .anyk import AnyKCursor
from .base_table import BaseBlockTable
from .blocks import BlockGrid, GridError
from .chains import ChainStore
from .compaction import (
    COMPACTION_FAULT_POINTS,
    CompactionError,
    CompactionReport,
    CubeCompactor,
)
from .compressed import CompressedChainStore, decode_tid_list, encode_tid_list
from .cube import (
    DEFAULT_BLOCK_SIZE,
    CubeError,
    CubeSnapshot,
    RankingCube,
    full_cube_sets,
)
from .cuboid import CuboidError, RankingCuboid
from .estimate import (
    CostEstimate,
    estimate_baseline_cost,
    estimate_cube_cost,
    estimate_qualifying,
)
from .executor import (
    ExecutorTrace,
    ProgressiveSearch,
    QueryAbortedError,
    QueryPlan,
    RankingCubeExecutor,
)
from .fragments import (
    FragmentedRankingCube,
    estimated_fragment_space,
    evenly_partition,
    fragment_cuboid_sets,
)
from .parallel import CuboidSpec, compute_build_groups, shard_ranges
from .grouping import (
    cooccurrence_counts,
    cooccurrence_grouping,
    expected_covering_fragments,
)
from .partition import (
    EquiDepthPartitioner,
    EquiWidthPartitioner,
    Partitioner,
    QuantileGridPartitioner,
    bins_for,
    grid_from_boundaries,
)
from .pseudo import PseudoBlockMap, scale_factor
from .reverse import (
    ReverseTopKQuery,
    ReverseTopKResult,
    count_preceding,
    reverse_topk,
    simplex_grid_family,
)

__all__ = [
    "AnyKCursor",
    "BaseBlockTable",
    "BlockGrid",
    "COMPACTION_FAULT_POINTS",
    "ChainStore",
    "CompactionError",
    "CompactionReport",
    "CostEstimate",
    "CompressedChainStore",
    "CubeCompactor",
    "CubeError",
    "CubeSnapshot",
    "CuboidError",
    "CuboidSpec",
    "DEFAULT_BLOCK_SIZE",
    "EquiDepthPartitioner",
    "EquiWidthPartitioner",
    "ExecutorTrace",
    "FragmentDesign",
    "FragmentedRankingCube",
    "GridError",
    "Partitioner",
    "ProgressiveSearch",
    "PseudoBlockMap",
    "QueryAbortedError",
    "QueryPlan",
    "QuantileGridPartitioner",
    "RankingCube",
    "RankingCubeExecutor",
    "RankingCuboid",
    "Recommendation",
    "ReverseTopKQuery",
    "ReverseTopKResult",
    "bins_for",
    "count_preceding",
    "reverse_topk",
    "simplex_grid_family",
    "compute_build_groups",
    "decode_tid_list",
    "encode_tid_list",
    "estimate_baseline_cost",
    "estimate_cube_cost",
    "estimate_qualifying",
    "cooccurrence_counts",
    "cooccurrence_grouping",
    "estimated_fragment_space",
    "evenly_partition",
    "expected_covering_fragments",
    "fragment_cuboid_sets",
    "full_cube_sets",
    "grid_from_boundaries",
    "recommend_fragments",
    "scale_factor",
    "shard_ranges",
]
