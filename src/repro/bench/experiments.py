"""One experiment per figure of the paper's Section 5.

Each ``figNN_*`` function regenerates the series behind that figure:
the same x axis, the same competing methods, averaged over a batch of
random queries per point.  Absolute values differ from the paper (our
substrate is a simulated device under Python, not SQL Server on a 2005
Pentium), but the *shapes* — who wins, rough factors, where crossovers
fall — are the reproduction targets, recorded in EXPERIMENTS.md.

Sizes are scaled down from the paper's 3M tuples (see DESIGN.md §5);
every function takes ``num_tuples`` so full-scale runs remain possible.
"""

from __future__ import annotations

from typing import Sequence

from ..core.cube import RankingCube
from ..core.executor import RankingCubeExecutor
from ..core.fragments import FragmentedRankingCube, evenly_partition
from ..core.partition import EquiDepthPartitioner, EquiWidthPartitioner
from ..relational.database import Database
from ..workloads.covertype import CoverTypeSpec, generate_covertype
from ..workloads.queries import QueryGenerator, QuerySpec
from ..workloads.synthetic import SyntheticSpec, generate
from .harness import (
    METHOD_BASELINE,
    METHOD_RANKING_CUBE,
    METHOD_RANKING_FRAGMENTS,
    METHOD_RANK_MAPPING,
    Environment,
    ExperimentResult,
    MethodMetrics,
    SeriesPoint,
    build_environment,
)

DEFAULT_T = 60_000
CUBE_METHODS = (METHOD_BASELINE, METHOD_RANK_MAPPING, METHOD_RANKING_CUBE)
FRAGMENT_METHODS = (METHOD_BASELINE, METHOD_RANK_MAPPING, METHOD_RANKING_FRAGMENTS)


def _run_point(
    env: Environment, methods: Sequence[str], queries
) -> dict[str, MethodMetrics]:
    return {method: env.run(method, queries) for method in methods}


# ----------------------------------------------------------------------
# Ranking cube experiments (Section 5.2)
# ----------------------------------------------------------------------
def fig04_topk(
    num_tuples: int = DEFAULT_T, queries_per_point: int = 8, seed: int = 29
) -> ExperimentResult:
    """Figure 4: execution cost vs. k (number of results requested)."""
    dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
    env = build_environment(dataset, CUBE_METHODS)
    result = ExperimentResult(
        "fig04", "query cost vs. top-k", "k",
        notes="paper: RC ~40x faster than BL, ~10x than RM at k=100; BL flat",
    )
    for k in (10, 20, 50, 100):
        gen = QueryGenerator(dataset.schema, QuerySpec(k=k, seed=seed + k))
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=k, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig05_skew(
    num_tuples: int = DEFAULT_T, queries_per_point: int = 8, seed: int = 31
) -> ExperimentResult:
    """Figure 5: execution cost vs. query skewness u = min|w|/max|w|."""
    dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
    env = build_environment(dataset, CUBE_METHODS)
    result = ExperimentResult(
        "fig05", "query cost vs. skewness", "u",
        notes="paper: RC rises slightly as u drops, stays far below BL/RM",
    )
    for u in (1.0, 0.5, 0.25, 0.1):
        gen = QueryGenerator(
            dataset.schema, QuerySpec(skewness=u, seed=seed + int(u * 100))
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=u, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig06_ranking_dims(
    num_tuples: int = DEFAULT_T, queries_per_point: int = 6, seed: int = 37
) -> ExperimentResult:
    """Figure 6: cost vs. r, the dimensions in the ranking function (R=4)."""
    dataset = generate(
        SyntheticSpec(num_ranking_dims=4, num_tuples=num_tuples, seed=seed)
    )
    env = build_environment(dataset, CUBE_METHODS, block_size=60)
    result = ExperimentResult(
        "fig06", "query cost vs. ranking dimensions used", "r",
        notes="paper: RC slightly cheaper as r grows toward R (less projection)",
    )
    for r in (1, 2, 3, 4):
        gen = QueryGenerator(
            dataset.schema, QuerySpec(num_ranking_dims=r, seed=seed + r)
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=r, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig07_dbsize(
    sizes: Sequence[int] = (20_000, 60_000, 120_000),
    queries_per_point: int = 6,
    seed: int = 41,
) -> ExperimentResult:
    """Figure 7: cost vs. database size T (paper: 1M..10M, scaled)."""
    result = ExperimentResult(
        "fig07", "query cost vs. database size", "T",
        notes="paper: BL/RM grow with T; RC roughly flat",
    )
    for num_tuples in sizes:
        dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
        env = build_environment(dataset, CUBE_METHODS)
        gen = QueryGenerator(dataset.schema, QuerySpec(seed=seed + num_tuples))
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=num_tuples, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig08_cardinality(
    num_tuples: int = DEFAULT_T,
    cardinalities: Sequence[int] = (5, 10, 20, 50, 100),
    queries_per_point: int = 6,
    seed: int = 43,
) -> ExperimentResult:
    """Figure 8: cost vs. selection-dimension cardinality C.

    The paper sweeps C in 10..1000 at T=3M; we keep the qualifying-set
    sizes (~T/C^2 at s=2) comparable at the scaled T instead of copying
    the raw C values.
    """
    result = ExperimentResult(
        "fig08", "query cost vs. cardinality", "C",
        notes="paper: BL improves with C; RC bumps then recovers (empty-cell skip)",
    )
    for cardinality in cardinalities:
        dataset = generate(
            SyntheticSpec(cardinality=cardinality, num_tuples=num_tuples, seed=seed)
        )
        env = build_environment(dataset, CUBE_METHODS)
        gen = QueryGenerator(dataset.schema, QuerySpec(seed=seed + cardinality))
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=cardinality, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig09_selections(
    num_tuples: int = DEFAULT_T, queries_per_point: int = 6, seed: int = 47
) -> ExperimentResult:
    """Figure 9: cost vs. s, the number of selection conditions (S=4)."""
    dataset = generate(
        SyntheticSpec(num_selection_dims=4, num_tuples=num_tuples, seed=seed)
    )
    env = build_environment(dataset, CUBE_METHODS)
    result = ExperimentResult(
        "fig09", "query cost vs. selection conditions", "s",
        notes="paper: BL/RM improve with s; RC mildly increases; all converge",
    )
    for s in (1, 2, 3, 4):
        gen = QueryGenerator(
            dataset.schema, QuerySpec(num_selections=s, seed=seed + s)
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=s, metrics=_run_point(env, CUBE_METHODS, queries))
        )
    return result


def fig10_block_size(
    num_tuples: int = DEFAULT_T,
    block_sizes: Sequence[int] = (10, 30, 100, 300, 1000),
    queries_per_point: int = 6,
    seed: int = 53,
) -> ExperimentResult:
    """Figure 10: ranking-cube cost vs. base block size B."""
    dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
    result = ExperimentResult(
        "fig10", "ranking cube cost vs. block size", "B",
        notes="paper: within ~20% across B in 10..1000",
    )
    gen = QueryGenerator(dataset.schema, QuerySpec(seed=seed))
    queries = gen.batch(queries_per_point)
    for block_size in block_sizes:
        env = build_environment(
            dataset, (METHOD_RANKING_CUBE,), block_size=block_size
        )
        result.points.append(
            SeriesPoint(
                x=block_size,
                metrics=_run_point(env, (METHOD_RANKING_CUBE,), queries),
            )
        )
    return result


# ----------------------------------------------------------------------
# Ranking fragment experiments (Section 5.3)
# ----------------------------------------------------------------------
def fig11_space(
    num_tuples: int = 20_000,
    dim_counts: Sequence[int] = (3, 6, 9, 12),
    fragment_size: int = 2,
    seed: int = 59,
) -> ExperimentResult:
    """Figure 11: storage bytes (data + indexes) vs. selection dims S."""
    result = ExperimentResult(
        "fig11", "space usage vs. selection dimensions", "S",
        notes="paper: all grow linearly with S; RF ~1-2.5x of BL/RM",
    )
    for s_dims in dim_counts:
        dataset = generate(
            SyntheticSpec(num_selection_dims=s_dims, num_tuples=num_tuples, seed=seed)
        )
        env = build_environment(
            dataset, FRAGMENT_METHODS, fragment_size=fragment_size
        )
        table = env.table
        assert env.cube is not None
        data = table.data_size_in_bytes
        secondary = sum(
            ix.size_in_bytes for ix in table.secondary_indexes.values()
        )
        composite = sum(
            ix.size_in_bytes for ix in table.composite_indexes.values()
        )
        metrics = {
            METHOD_BASELINE: MethodMetrics(space_bytes=float(data + secondary)),
            METHOD_RANK_MAPPING: MethodMetrics(space_bytes=float(data + composite)),
            METHOD_RANKING_FRAGMENTS: MethodMetrics(
                space_bytes=float(data + env.cube.size_in_bytes)
            ),
        }
        result.points.append(SeriesPoint(x=s_dims, metrics=metrics))
    return result


def fig12_covering_fragments(
    num_tuples: int = 40_000, queries_per_point: int = 6, seed: int = 61
) -> ExperimentResult:
    """Figure 12: fragment cost vs. number of covering fragments (1..3).

    Queries have three selection conditions, intentionally placed inside
    one, two, or three distinct fragments (F=2, S=12).
    """
    dataset = generate(
        SyntheticSpec(num_selection_dims=12, num_tuples=num_tuples, seed=seed)
    )
    env = build_environment(
        dataset, (METHOD_RANKING_FRAGMENTS,), fragment_size=2
    )
    cube = env.cube
    assert isinstance(cube, FragmentedRankingCube)
    fragments = cube.fragments
    gen = QueryGenerator(dataset.schema, QuerySpec(num_selections=3, seed=seed))
    # Three conditions cannot sit inside one fragment at F=2, so the
    # "1 covering fragment" point uses s=2 inside one fragment, matching
    # the spirit of the paper's construction at its F=2 default.
    result = ExperimentResult(
        "fig12", "fragment cost vs. covering fragments", "covering",
        notes="paper: 2 frags ~1.4x, 3 frags ~2x of the 1-fragment cost",
    )
    plans = {
        1: list(fragments[0]),                                   # s=2, 1 fragment
        2: list(fragments[0]) + [fragments[1][0]],               # s=3, 2 fragments
        3: [fragments[0][0], fragments[1][0], fragments[2][0]],  # s=3, 3 fragments
    }
    for covering, dims in plans.items():
        queries = [
            gen.constrained(dims, seed_offset=covering * 100 + i)
            for i in range(queries_per_point)
        ]
        for query in queries:
            assert cube.covering_fragment_count(query.selection_names) == covering
        result.points.append(
            SeriesPoint(
                x=covering,
                metrics=_run_point(env, (METHOD_RANKING_FRAGMENTS,), queries),
            )
        )
    return result


def fig13_fragment_size(
    num_tuples: int = 40_000,
    fragment_sizes: Sequence[int] = (1, 2, 3),
    queries_per_point: int = 6,
    seed: int = 67,
) -> ExperimentResult:
    """Figure 13: fragment cost vs. fragment size F (queries with s=3)."""
    dataset = generate(
        SyntheticSpec(num_selection_dims=12, num_tuples=num_tuples, seed=seed)
    )
    result = ExperimentResult(
        "fig13", "fragment cost vs. fragment size", "F",
        notes="paper: larger F -> faster queries (better coverage)",
    )
    gen = QueryGenerator(dataset.schema, QuerySpec(num_selections=3, seed=seed))
    queries = gen.batch(queries_per_point)
    for fragment_size in fragment_sizes:
        env = build_environment(
            dataset, (METHOD_RANKING_FRAGMENTS,), fragment_size=fragment_size
        )
        result.points.append(
            SeriesPoint(
                x=fragment_size,
                metrics=_run_point(env, (METHOD_RANKING_FRAGMENTS,), queries),
            )
        )
    return result


def fig14_num_dims(
    num_tuples: int = 40_000,
    dim_counts: Sequence[int] = (3, 6, 9, 12),
    queries_per_point: int = 6,
    seed: int = 71,
) -> ExperimentResult:
    """Figure 14: cost vs. S for BL, RM (fragment indexes) and RF (s=3)."""
    result = ExperimentResult(
        "fig14", "query cost vs. selection dimensions", "S",
        notes="paper: RM degrades with S; BL flat; RF flat-ish and best",
    )
    for s_dims in dim_counts:
        dataset = generate(
            SyntheticSpec(num_selection_dims=s_dims, num_tuples=num_tuples, seed=seed)
        )
        env = build_environment(dataset, FRAGMENT_METHODS, fragment_size=2)
        gen = QueryGenerator(
            dataset.schema,
            QuerySpec(num_selections=min(3, s_dims), seed=seed + s_dims),
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(
                x=s_dims, metrics=_run_point(env, FRAGMENT_METHODS, queries)
            )
        )
    return result


def fig15_covertype(
    num_tuples: int = 30_000, queries_per_point: int = 6, seed: int = 73
) -> ExperimentResult:
    """Figure 15: cost vs. k on the CoverType-like real-data stand-in.

    Fragment size 3 (the paper's 4 groups of 3 dims); queries use 3
    selection conditions and rank on all 3 ranking dimensions.
    """
    dataset = generate_covertype(CoverTypeSpec(num_tuples=num_tuples, seed=seed))
    env = build_environment(dataset, FRAGMENT_METHODS, fragment_size=3)
    result = ExperimentResult(
        "fig15", "CoverType cost vs. top-k", "k",
        notes="paper: on this low-cardinality data BL beats RM; RF best",
    )
    for k in (10, 20, 50, 100):
        gen = QueryGenerator(
            dataset.schema,
            QuerySpec(k=k, num_selections=3, num_ranking_dims=3, seed=seed + k),
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=k, metrics=_run_point(env, FRAGMENT_METHODS, queries))
        )
    return result


# ----------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md §6)
# ----------------------------------------------------------------------
def ablation_partitioner(
    num_tuples: int = 30_000, queries_per_point: int = 6, seed: int = 79
) -> ExperimentResult:
    """Equi-depth vs. equi-width partitioning on skewed (gaussian) data."""
    dataset = generate(
        SyntheticSpec(
            num_tuples=num_tuples, ranking_distribution="gaussian", seed=seed
        )
    )
    result = ExperimentResult(
        "ablation_partitioner", "partitioning strategy on skewed data",
        "partitioner",
        notes="equi-depth adapts bin widths to density; equi-width does not",
    )
    gen = QueryGenerator(dataset.schema, QuerySpec(seed=seed))
    queries = gen.batch(queries_per_point)
    for name, partitioner in (
        ("equi-depth", EquiDepthPartitioner()),
        ("equi-width", EquiWidthPartitioner()),
    ):
        env = build_environment(
            dataset, (METHOD_RANKING_CUBE,), partitioner=partitioner
        )
        result.points.append(
            SeriesPoint(
                x=name, metrics=_run_point(env, (METHOD_RANKING_CUBE,), queries)
            )
        )
    return result


def ablation_pseudo_blocking(
    num_tuples: int = 30_000, queries_per_point: int = 6, seed: int = 89
) -> ExperimentResult:
    """Pseudo blocking on vs. off (scale factor forced to 1).

    Without pseudo blocking each cuboid cell corresponds to one *base*
    block, so cells hold only a handful of entries and the retrieve step
    probes the directory for every single bid instead of amortizing one
    fetch across a whole pseudo block (Section 3.1.3's motivation).
    """
    dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
    gen = QueryGenerator(dataset.schema, QuerySpec(seed=seed))
    queries = gen.batch(queries_per_point)
    result = ExperimentResult(
        "ablation_pseudo_blocking", "pseudo blocking", "pseudo",
        notes="sf=1 disables the block merge; more directory probes per query",
    )
    for name, override in (("on", None), ("off (sf=1)", 1)):
        db = Database()
        table = dataset.load_into(db)
        cube = RankingCube.build(table, pseudo_scale_override=override)
        env = Environment(
            db,
            table,
            {METHOD_RANKING_CUBE: RankingCubeExecutor(cube, table)},
            cube=cube,
        )
        result.points.append(
            SeriesPoint(
                x=name, metrics=_run_point(env, (METHOD_RANKING_CUBE,), queries)
            )
        )
    return result


def extra_prior_art(
    num_tuples: int = 30_000, queries_per_point: int = 6, seed: int = 103
) -> ExperimentResult:
    """Onion and PREFER vs. the ranking cube, as selections are added.

    Not a paper figure — the paper dismisses Onion [8] and PREFER [6]
    qualitatively as selection-unaware (Section 1).  This experiment
    quantifies that motivation: with s=0 the prior art is competitive
    (PREFER especially, near its reference function); each added equality
    condition multiplies the tuples they must fetch-and-filter, while the
    ranking cube's cost barely moves.
    """
    from ..baselines.onion import OnionIndex
    from ..baselines.prefer import PreferView

    dataset = generate(SyntheticSpec(num_tuples=num_tuples, seed=seed))
    db = Database()
    table = dataset.load_into(db)
    onion = OnionIndex(table)
    prefer = PreferView(table)
    cube = RankingCube.build(table)
    env = Environment(
        db,
        table,
        {
            "onion": onion,
            "prefer": prefer,
            METHOD_RANKING_CUBE: RankingCubeExecutor(cube, table),
        },
        cube=cube,
    )
    methods = ("onion", "prefer", METHOD_RANKING_CUBE)
    result = ExperimentResult(
        "extra_prior_art", "prior art vs. selections", "s",
        notes="positive-weight linear queries (PREFER's requirement)",
    )
    for s in (0, 1, 2):
        gen = QueryGenerator(
            dataset.schema,
            QuerySpec(num_selections=s, skewness=0.5, seed=seed + s),
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=s, metrics=_run_point(env, methods, queries))
        )
    return result


def extra_hybrid_routing(
    num_tuples: int = 30_000, queries_per_point: int = 6, seed: int = 109
) -> ExperimentResult:
    """Hybrid cost-based routing vs. always-cube and always-baseline.

    Sweeps the number of selection conditions on an S=4 dataset (the
    Figure 9 setting): at low s the cube wins, at s=4 almost nothing
    qualifies and fetch-and-sort wins ("ranking is even not necessary",
    the paper notes).  The router runs the path with the cheaper
    estimate, so it should track whichever is cheaper at every point.
    """
    from ..route.router import AdaptiveRouter

    dataset = generate(
        SyntheticSpec(num_selection_dims=4, num_tuples=num_tuples, seed=seed)
    )
    db = Database()
    table = dataset.load_into(db)
    for name in dataset.schema.selection_names:
        table.create_secondary_index(name)
    cube = RankingCube.build(table)
    from ..baselines.scan import BaselineExecutor

    env = Environment(
        db,
        table,
        {
            METHOD_BASELINE: BaselineExecutor(table),
            METHOD_RANKING_CUBE: RankingCubeExecutor(cube, table),
            "hybrid": AdaptiveRouter.for_cube(cube, table),
        },
        cube=cube,
    )
    methods = (METHOD_BASELINE, METHOD_RANKING_CUBE, "hybrid")
    result = ExperimentResult(
        "extra_hybrid_routing", "hybrid routing vs. fixed paths", "s",
        notes="hybrid should track min(baseline, cube) at every s",
    )
    for s in (1, 2, 3, 4):
        gen = QueryGenerator(
            dataset.schema, QuerySpec(num_selections=s, seed=seed + s)
        )
        queries = gen.batch(queries_per_point)
        result.points.append(
            SeriesPoint(x=s, metrics=_run_point(env, methods, queries))
        )
    return result


#: Experiment registry: id -> callable, for the CLI runner and the benches.
ALL_EXPERIMENTS = {
    "fig04": fig04_topk,
    "fig05": fig05_skew,
    "fig06": fig06_ranking_dims,
    "fig07": fig07_dbsize,
    "fig08": fig08_cardinality,
    "fig09": fig09_selections,
    "fig10": fig10_block_size,
    "fig11": fig11_space,
    "fig12": fig12_covering_fragments,
    "fig13": fig13_fragment_size,
    "fig14": fig14_num_dims,
    "fig15": fig15_covertype,
    "ablation_partitioner": ablation_partitioner,
    "ablation_pseudo_blocking": ablation_pseudo_blocking,
    "extra_prior_art": extra_prior_art,
    "extra_hybrid_routing": extra_hybrid_routing,
}
