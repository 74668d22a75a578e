"""The router: one ``execute()`` over every access path.

:class:`AdaptiveRouter` is the repository's only router.  It wraps the
cube, fragment and baseline executors — or one cube per ranking-dimension
group (Section 6's extension) — behind a single entry point and picks
the path per query by *blended* cost — the analytic estimate of
:mod:`repro.core.estimate` shrunk toward the observed weighted page cost
of past queries with the same :class:`~repro.route.signature.QueryShape`
(see :mod:`repro.route.cost`).  Because every path honors the byte-identical
answers contract (property-tested in ``tests/properties``), routing is
purely a cost decision: the answer is the same object no matter which
path runs, so the router can never trade correctness for speed.  A path
the model cannot use (a cube whose grid or cuboids miss a dimension of
the query) prices at ``inf``; a query no path can answer raises
:class:`~repro.core.cube.CubeError` before anything runs.

Exploration is deterministic, not stochastic: for each new query shape
the router probes, once each and in ascending analytic-cost order, every
path whose analytic estimate is within ``probe_margin`` of the current
best blend; after that it exploits the blended minimum.  At
``probe_margin=1.0`` a path is explored only when the model prices it no
higher than the current best, so a fresh router makes the analytic choice
(Figure 9's index-vs-cube call).  Determinism matters here — the
drifting-stream gate replays a fixed stream and must reproduce the same
decisions run over run.

Observations are only as current as the materialization they measured.
A cube path's observations belong to the :attr:`RankingCube.epoch` they
were taken at: a compaction or re-partition bumps the epoch, the router
forgets that path's samples, and exploration re-probes it.
"""

from __future__ import annotations

import math
import threading
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
from .cost import DEFAULT_PRIOR_STRENGTH, CostBook
from .signature import QueryShape, shape_of

#: Explore an unsampled path only while its analytic estimate is within
#: this factor of the best blended cost — paths the model prices far off
#: the frontier are never worth a probe.
DEFAULT_PROBE_MARGIN = 3.0


class RoutePath:
    """One executable access path: an estimator plus an executor.

    ``execute`` returns ``(result, observed_io)`` where ``observed_io``
    is the *weighted* logical page cost of the run — sequential pages at
    ``SEQ_READ_WEIGHT``, random pages at ``RANDOM_READ_WEIGHT`` — i.e.
    the same currency the analytic estimates price in, so observations
    and priors blend without unit conversion.
    """

    name: str

    def generation(self) -> int | None:
        """What this path's observed costs are valid for; the router
        forgets them when it changes (``None``: valid for ever)."""
        return None

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

    def generation(self) -> int:
        return self.cube.snapshot().epoch

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
    shape: QueryShape
    probe: bool                      #: was this a deterministic exploration?
    analytic: dict = field(default_factory=dict)   #: path -> analytic io
    blended: dict = field(default_factory=dict)    #: path -> blended io
    observed_io: float = 0.0
    observed_pages: int = 0
    wall_s: float = 0.0


class AdaptiveRouter:
    """Cost-routed execution over a family of answer-identical paths.

    Parameters
    ----------
    table:
        The base relation (supplies selectivity statistics for shapes and
        the baseline path).
    paths:
        The :class:`RoutePath` family to route over.  Names must be
        unique: equal blended costs break toward the smaller name, and
        equal analytic estimates probe in name order.
    registry:
        Optional metrics registry; decisions bump ``route.decision``
        (labeled by path), probes bump ``route.probes``, observed pages
        accumulate under ``route.observed_pages``.
    prior_strength / probe_margin:
        Shrinkage prior weight (see :mod:`repro.route.cost`) and the
        exploration cutoff factor.
    """

    def __init__(
        self,
        table: Table,
        paths: list[RoutePath],
        registry=None,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        probe_margin: float = DEFAULT_PROBE_MARGIN,
    ):
        if not paths:
            raise ValueError("need at least one route path")
        names = [p.name for p in paths]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate path names: {names}")
        if probe_margin < 1.0:
            raise ValueError(f"probe_margin must be >= 1.0, got {probe_margin}")
        self.table = table
        self.paths = {p.name: p for p in paths}
        self.registry = registry
        self.book = CostBook(prior_strength=prior_strength)
        #: path name -> the generation its observations in ``book`` measured
        self._generations = {p.name: p.generation() for p in paths}
        self.probe_margin = probe_margin
        self.last_decision: RouteDecision | None = None
        self._decide_lock = threading.Lock()

    # ------------------------------------------------------------------
    @classmethod
    def for_cube(
        cls,
        cube: RankingCube,
        table: Table,
        fragment_cube: RankingCube | None = None,
        pseudo_cache=None,
        bound_memo=None,
        block_cache=None,
        registry=None,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        probe_margin: float = DEFAULT_PROBE_MARGIN,
    ) -> "AdaptiveRouter":
        """The standard path family: cube / fragments / baseline.

        Injected caches go to the cube path exactly as
        :class:`~repro.serve.service.QueryService` hands them to its
        executor.
        """
        paths: list[RoutePath] = [
            CubePath(
                "cube", cube, table,
                RankingCubeExecutor(
                    cube, table,
                    pseudo_cache=pseudo_cache, bound_memo=bound_memo,
                    block_cache=block_cache,
                ),
            )
        ]
        if fragment_cube is not None:
            paths.append(
                CubePath(
                    "fragments", fragment_cube, table,
                    RankingCubeExecutor(fragment_cube, table),
                )
            )
        paths.append(BaselinePath(table))
        return cls(
            table, paths,
            registry=registry,
            prior_strength=prior_strength,
            probe_margin=probe_margin,
        )

    # ------------------------------------------------------------------
    def decide(
        self, query: TopKQuery, shape: QueryShape | None = None
    ) -> RouteDecision:
        """Pick a path for one query without executing it.

        Raises :class:`~repro.core.cube.CubeError` when every path prices
        the query at ``inf``: no path can answer it.
        """
        if shape is None:
            shape = shape_of(self.table, query)
        with self._decide_lock:
            for name, path in self.paths.items():
                generation = path.generation()
                if generation != self._generations[name]:
                    self._generations[name] = generation
                    self.book.forget(name)
            analytic = {
                name: path.estimate_io(query)
                for name, path in self.paths.items()
            }
            if all(math.isinf(cost) for cost in analytic.values()):
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
            blended = {
                name: self.book.blended(shape, name, analytic[name])
                for name in self.paths
            }
            best = min(blended, key=lambda name: (blended[name], name))
            probe = False
            # deterministic exploration: unsampled paths near the frontier
            # get exactly one probe each, cheapest analytic first
            for name in sorted(self.paths, key=lambda n: (analytic[n], n)):
                if name == best:
                    continue
                if self.book.samples(shape, name) > 0:
                    continue
                if analytic[name] <= self.probe_margin * blended[best]:
                    best, probe = name, True
                    break
        return RouteDecision(
            path=best, shape=shape, probe=probe,
            analytic=analytic, blended=blended,
        )

    def execute(
        self, query: TopKQuery, trace=None, tracer=None
    ) -> QueryResult:
        """Route, run, observe: the router's single entry point.

        Returns the answer, as every executor does; the full
        :class:`RouteDecision` is kept on :attr:`last_decision`.  A
        storage-fault abort propagates as
        :class:`~repro.core.executor.QueryAbortedError` and leaves the
        cost book untouched — a partial run's cost would poison the
        observed mean.
        """
        decision = self.decide(query)
        path = self.paths[decision.path]
        generation = path.generation()
        started = time.perf_counter()
        with maybe_span(
            tracer, "route.query", path=decision.path, probe=decision.probe
        ) as span:
            result, observed_io = path.execute(query, trace=trace, tracer=tracer)
            wall_s = time.perf_counter() - started
            if span is not None:
                span.add_many(
                    observed_io=observed_io,
                    observed_pages=result.blocks_accessed,
                )
        if path.generation() == generation:
            # a swap mid-query leaves a cost of neither generation
            self.book.record(decision.shape, decision.path, observed_io, wall_s)
        self.last_decision = RouteDecision(
            path=decision.path, shape=decision.shape, probe=decision.probe,
            analytic=decision.analytic, blended=decision.blended,
            observed_io=observed_io,
            observed_pages=result.blocks_accessed, wall_s=wall_s,
        )
        if self.registry is not None:
            self.registry.counter("route.queries").inc()
            self.registry.counter("route.decision", path=decision.path).inc()
            if decision.probe:
                self.registry.counter("route.probes").inc()
            self.registry.counter("route.observed_pages").inc(
                result.blocks_accessed
            )
            self.registry.histogram("route.wall_s").observe(wall_s)
        return result
