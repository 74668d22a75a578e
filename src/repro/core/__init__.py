"""The ranking cube: the paper's primary contribution.

Geometry partitioning (Section 3.1.2), pseudo blocks and rank-aware
cuboids (Section 3.1.3), the progressive query algorithm (Section 3.2),
and ranking fragments for high-dimensional data (Section 4).
"""

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
    count_family,
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
    "CubeCompactor",
    "CubeError",
    "CubeSnapshot",
    "CuboidError",
    "DEFAULT_BLOCK_SIZE",
    "EquiDepthPartitioner",
    "EquiWidthPartitioner",
    "ExecutorTrace",
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
    "ReverseTopKQuery",
    "ReverseTopKResult",
    "bins_for",
    "count_family",
    "reverse_topk",
    "simplex_grid_family",
    "estimate_baseline_cost",
    "estimate_cube_cost",
    "estimate_qualifying",
    "estimated_fragment_space",
    "evenly_partition",
    "fragment_cuboid_sets",
    "full_cube_sets",
    "grid_from_boundaries",
    "scale_factor",
]
