"""Ranking Cube: answering top-k queries with multi-dimensional selections.

A full reproduction of Xin, Han, Cheng & Li (VLDB 2006).  The public API:

* :class:`Database`, :class:`Schema`, :func:`selection_attr`,
  :func:`ranking_attr` — the relational substrate;
* :class:`RankingCube`, :class:`FragmentedRankingCube`,
  :class:`RankingCubeExecutor` — the paper's contribution;
* :class:`LinearFunction`, :class:`LpDistance`, :class:`ConvexFunction`
  and friends — convex ranking functions;
* :class:`BaselineExecutor`, :class:`RankMappingExecutor` — the paper's
  comparison methods;
* :func:`compile_topk` — the SQL front-end;
* :mod:`repro.workloads`, :mod:`repro.bench` — data/query generation and
  the per-figure experiment harness (``python -m repro.bench fig04``);
  end-to-end speed is measured by ``benchmarks/ledger/``.

Quickstart::

    from repro import (
        Database, RankingCube, RankingCubeExecutor, compile_topk,
    )
    from repro.workloads import SyntheticSpec, generate

    dataset = generate(SyntheticSpec(num_tuples=10_000))
    db = Database()
    table = dataset.load_into(db)
    cube = RankingCube.build(table)
    executor = RankingCubeExecutor(cube, table)
    query = compile_topk(
        "SELECT TOP 5 FROM R WHERE a1 = 3 ORDER BY n1 + n2", dataset.schema
    )
    for row in executor.execute(query):
        print(row.tid, row.score)
"""

from .baselines import BaselineExecutor, OnionIndex, PreferView, RankMappingExecutor
from .core import (
    BlockGrid,
    EquiDepthPartitioner,
    EquiWidthPartitioner,
    FragmentedRankingCube,
    RankingCube,
    RankingCubeExecutor,
    RankingCuboid,
)
from .ranking import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    RankingFunction,
    descending,
)
from .relational import (
    Database,
    QueryResult,
    ResultRow,
    Schema,
    Table,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from .persist import PersistError, Workspace, load_workspace, save_workspace
from .sqlmini import compile_topk, parse_topk

__version__ = "1.0.0"

__all__ = [
    "BaselineExecutor",
    "BlockGrid",
    "ConvexFunction",
    "Database",
    "EquiDepthPartitioner",
    "EquiWidthPartitioner",
    "FragmentedRankingCube",
    "LinearFunction",
    "LpDistance",
    "OnionIndex",
    "PersistError",
    "PreferView",
    "QuadraticForm",
    "QueryResult",
    "RankMappingExecutor",
    "RankingCube",
    "RankingCubeExecutor",
    "RankingCuboid",
    "RankingFunction",
    "ResultRow",
    "Schema",
    "Table",
    "TopKQuery",
    "Workspace",
    "compile_topk",
    "load_workspace",
    "descending",
    "parse_topk",
    "ranking_attr",
    "save_workspace",
    "selection_attr",
    "__version__",
]
