"""The router: one ``execute()`` over every access path.

:class:`AdaptiveRouter` is the repository's only router.  It wraps the
cube, fragment and baseline executors — or one cube per ranking-dimension
group (Section 6's extension) — behind a single entry point and sends
each query down the path with the cheapest estimate from
:mod:`repro.core.estimate`.  The cube's estimate is a walk over the
record counts it keeps in memory, so pricing a query reads no page, and
it follows every install (compaction, re-partition, promotion) with no
observation to forget.  Because every path honors the byte-identical
answers contract (property-tested in ``tests/properties``), routing is
purely a cost decision: the answer is the same object no matter which
path runs, so the router can never trade correctness for speed.  A path
the model cannot use (a cube whose grid or cuboids miss a dimension of
the query) prices at ``inf``; a query no path can answer raises
:class:`~repro.core.cube.CubeError` before anything runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..baselines.scan import BaselineExecutor
from ..core.cube import CubeError, RankingCube
from ..core.estimate import estimate_baseline_cost, estimate_cube_cost
from ..core.executor import RankingCubeExecutor
from ..obs.tracing import maybe_span
from ..relational.query import QueryResult, TopKQuery
from ..relational.table import Table
from ..storage.device import RANDOM_READ_WEIGHT, SEQ_READ_WEIGHT


class RoutePath:
    """One executable access path: an estimator plus an executor.

    ``execute`` returns ``(result, observed_io)`` where ``observed_io``
    is the *weighted* logical page cost of the run — sequential pages at
    ``SEQ_READ_WEIGHT``, random pages at ``RANDOM_READ_WEIGHT`` — i.e.
    the same currency the estimates price in, so each query's decision
    can be checked against what it cost.
    """

    name: str

    def estimate_io(self, query: TopKQuery) -> float:
        raise NotImplementedError

    def execute(self, query, trace=None, tracer=None):
        raise NotImplementedError


class CubePath(RoutePath):
    """Progressive ranking-cube search (full cube or fragment family)."""

    def __init__(
        self, name: str, cube: RankingCube, table: Table,
        executor: RankingCubeExecutor,
    ):
        self.name = name
        self.cube = cube
        self.table = table
        self.executor = executor

    def estimate_io(self, query: TopKQuery) -> float:
        try:
            return estimate_cube_cost(self.cube, self.table, query).io_cost
        except CubeError:
            # this family cannot cover the query's dimensions at all
            return math.inf

    def execute(self, query, trace=None, tracer=None):
        result = self.executor.execute(query, trace=trace, tracer=tracer)
        return result, RANDOM_READ_WEIGHT * result.blocks_accessed


class BaselinePath(RoutePath):
    """Index-or-scan over the base relation (Section 5.1.2's BL)."""

    name = "baseline"

    def __init__(self, table: Table):
        self.table = table

    def estimate_io(self, query: TopKQuery) -> float:
        return estimate_baseline_cost(self.table, query).io_cost

    def execute(self, query, trace=None, tracer=None):
        # a fresh executor per call keeps ``last_plan`` race-free under
        # concurrent routing (the object is two attribute assignments)
        executor = BaselineExecutor(self.table)
        result = executor.execute(query)
        weight = (
            SEQ_READ_WEIGHT
            if executor.last_plan == "scan"
            else RANDOM_READ_WEIGHT
        )
        return result, weight * result.blocks_accessed


@dataclass(frozen=True)
class RouteDecision:
    """Everything one routed query decided and observed."""

    path: str
    analytic: dict = field(default_factory=dict)   #: path -> estimated io
    observed_io: float = 0.0
    observed_pages: int = 0
    wall_s: float = 0.0


class AdaptiveRouter:
    """Cost-routed execution over a family of answer-identical paths.

    Parameters
    ----------
    table:
        The base relation.
    paths:
        The :class:`RoutePath` family to route over.  Names must be
        unique: equal estimates break toward the smaller name.
    registry:
        Optional metrics registry; decisions bump ``route.decision``
        (labeled by path), observed pages accumulate under
        ``route.observed_pages``.
    """

    def __init__(self, table: Table, paths: list[RoutePath], registry=None):
        if not paths:
            raise ValueError("need at least one route path")
        names = [p.name for p in paths]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate path names: {names}")
        self.table = table
        self.paths = {p.name: p for p in paths}
        self.registry = registry
        self.last_decision: RouteDecision | None = None

    # ------------------------------------------------------------------
    @classmethod
    def for_cube(
        cls,
        cube: RankingCube,
        table: Table,
        fragment_cube: RankingCube | None = None,
        executor: RankingCubeExecutor | None = None,
        registry=None,
    ) -> "AdaptiveRouter":
        """The standard path family: cube / fragments / baseline.

        The cube path runs on ``executor`` when given — a service hands
        over its own, caches included — else on a bare
        executor over ``cube``.
        """
        if executor is None:
            executor = RankingCubeExecutor(cube, table)
        elif executor.cube is not cube:
            raise ValueError("the cube path's executor must run over the cube")
        paths: list[RoutePath] = [CubePath("cube", cube, table, executor)]
        if fragment_cube is not None:
            paths.append(
                CubePath(
                    "fragments", fragment_cube, table,
                    RankingCubeExecutor(fragment_cube, table),
                )
            )
        paths.append(BaselinePath(table))
        return cls(table, paths, registry=registry)

    # ------------------------------------------------------------------
    def decide(self, query: TopKQuery) -> RouteDecision:
        """Pick the path with the cheapest estimate, without executing it.

        Raises :class:`~repro.core.cube.CubeError` when every path prices
        the query at ``inf``: no path can answer it.
        """
        analytic = {
            name: path.estimate_io(query) for name, path in self.paths.items()
        }
        cost, best = min((cost, name) for name, cost in analytic.items())
        if math.isinf(cost):
            grids = [
                path.cube.grid.dims
                for path in self.paths.values()
                if isinstance(path, CubePath)
            ]
            raise CubeError(
                f"no path covers ranking dimensions "
                f"{sorted(query.ranking.dims)} with selections "
                f"{sorted(query.selections)}; available grids: {grids}"
            )
        return RouteDecision(path=best, analytic=analytic)

    def execute(
        self, query: TopKQuery, trace=None, tracer=None
    ) -> QueryResult:
        """Route and run: the router's single entry point.

        Returns the answer, as every executor does; the full
        :class:`RouteDecision` (estimates beside the observed cost) is
        kept on :attr:`last_decision`.  A storage-fault abort propagates
        as :class:`~repro.core.executor.QueryAbortedError`.
        """
        decision = self.decide(query)
        started = time.perf_counter()
        with maybe_span(tracer, "route.query", path=decision.path) as span:
            result, observed_io = self.paths[decision.path].execute(
                query, trace=trace, tracer=tracer
            )
            wall_s = time.perf_counter() - started
            if span is not None:
                span.add_many(
                    observed_io=observed_io,
                    observed_pages=result.blocks_accessed,
                )
        self.last_decision = RouteDecision(
            path=decision.path, analytic=decision.analytic,
            observed_io=observed_io,
            observed_pages=result.blocks_accessed, wall_s=wall_s,
        )
        if self.registry is not None:
            self.registry.counter("route.queries").inc()
            self.registry.counter("route.decision", path=decision.path).inc()
            self.registry.counter("route.observed_pages").inc(
                result.blocks_accessed
            )
            self.registry.histogram("route.wall_s").observe(wall_s)
        return result
