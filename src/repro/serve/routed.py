"""Adaptive routing in front of the serving tier.

:class:`RoutedQueryService` is a :class:`~repro.serve.service.QueryService`
whose per-query execution goes through an
:class:`~repro.route.router.AdaptiveRouter` instead of straight into the
cube executor: each query is priced across the cube / fragment / baseline
paths, routed to the blended-cost minimum, and its observed cost
is folded back into the router's cost book.  The answer contract is
untouched — every path returns byte-identical results, so a client cannot
tell which path served it except through ``route.*`` metrics.

The service can also own the two adaptive maintenance daemons:

* ``auto_advise_observations=N`` attaches a
  :class:`~repro.route.advisor.CubeAdvisor` that sees every routed
  query's selection set and, in the background, promotes hot cuboids and
  demotes cold ones under ``advisor_budget_entries``.
* ``drift_check_interval=N`` runs a
  :class:`~repro.route.drift.DriftDetector` probe every ``N`` routed
  queries and, when the live distribution has drifted past
  ``drift_threshold``, re-partitions the grid online through
  :func:`~repro.route.drift.repartition_cube` (at most one repartition at
  a time; queries keep flowing against their pinned snapshots).
"""

from __future__ import annotations

import threading

from ..core.cube import RankingCube
from ..relational.query import QueryResult, TopKQuery
from ..relational.table import Table
from ..route.advisor import CubeAdvisor
from ..route.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftDetector,
    RepartitionReport,
    repartition_cube,
)
from ..route.router import DEFAULT_PROBE_MARGIN, AdaptiveRouter
from ..route.cost import DEFAULT_PRIOR_STRENGTH
from .service import QueryService


class RoutedQueryService(QueryService):
    """A query service whose front door is the adaptive router.

    Accepts every :class:`QueryService` parameter (the cube path shares
    the service's pseudo-block cache, bound memo and block cache) plus:

    Parameters
    ----------
    fragment_cube:
        Optional fragment-family cube added as a third route path.
    prior_strength / probe_margin:
        Router tuning, passed through to :class:`AdaptiveRouter`.
    auto_advise_observations:
        When set, the service owns a background :class:`CubeAdvisor`
        with ``min_observations`` set to this value; every routed query
        is observed and the daemon re-plans after each batch of new
        observations.  :meth:`close` stops it.
    advisor_budget_entries:
        Space budget (total materialized entries) handed to the owned
        advisor.
    drift_check_interval:
        When set, every ``N``-th routed query triggers a drift probe; a
        drifted grid is re-partitioned inline (one worker pays the
        rebuild; concurrent queries proceed on pinned snapshots).
    drift_threshold:
        Max bin-depth ratio beyond which the grid counts as drifted.
    """

    def __init__(
        self,
        cube: RankingCube,
        relation: Table,
        *,
        fragment_cube: RankingCube | None = None,
        prior_strength: float = DEFAULT_PRIOR_STRENGTH,
        probe_margin: float = DEFAULT_PROBE_MARGIN,
        auto_advise_observations: int | None = None,
        advisor_budget_entries: int | None = None,
        drift_check_interval: int | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        **service_kwargs,
    ):
        if relation is None:
            raise ValueError("RoutedQueryService needs the base relation")
        super().__init__(cube, relation, **service_kwargs)
        self.router = AdaptiveRouter.for_cube(
            cube,
            relation,
            fragment_cube=fragment_cube,
            pseudo_cache=self.pseudo_cache,
            bound_memo=self.bound_memo,
            block_cache=self.block_cache,
            registry=self.registry,
            prior_strength=prior_strength,
            probe_margin=probe_margin,
        )
        self.relation = relation
        pool = getattr(cube.base_table, "pool", None)
        self.advisor: CubeAdvisor | None = None
        self._owns_advisor = False
        if auto_advise_observations is not None:
            if pool is None:
                raise ValueError(
                    "auto_advise_observations needs a cube whose base "
                    "table exposes its buffer pool"
                )
            self.advisor = CubeAdvisor(
                cube,
                relation,
                pool,
                space_budget_entries=advisor_budget_entries,
                min_observations=auto_advise_observations,
                registry=self.registry,
            ).start()
            self._owns_advisor = True
        self.drift_detector: DriftDetector | None = None
        self._drift_interval = drift_check_interval
        self._drift_pool = pool
        if drift_check_interval is not None:
            if drift_check_interval < 1:
                raise ValueError("drift_check_interval must be >= 1")
            if pool is None:
                raise ValueError(
                    "drift_check_interval needs a cube whose base table "
                    "exposes its buffer pool"
                )
            self.drift_detector = DriftDetector(cube, threshold=drift_threshold)
        self._routed_count = 0
        self._route_lock = threading.Lock()
        self._repartition_lock = threading.Lock()
        self.repartitions: list[RepartitionReport] = []

    # ------------------------------------------------------------------
    def _execute(self, query: TopKQuery, trace, tracer) -> QueryResult:
        return self.router.execute(query, trace=trace, tracer=tracer)

    def _run_one(self, query: TopKQuery) -> QueryResult:
        result = super()._run_one(query)
        if self.advisor is not None:
            self.advisor.observe(query)
        self._after_routed()
        return result

    def _after_routed(self) -> None:
        if self.drift_detector is None:
            return
        with self._route_lock:
            self._routed_count += 1
            due = self._routed_count % self._drift_interval == 0
        if due:
            self.maybe_repartition()

    # ------------------------------------------------------------------
    def maybe_repartition(self) -> RepartitionReport | None:
        """Probe for drift; re-partition the grid if it has drifted.

        Returns the :class:`RepartitionReport` when a rebuild ran (check
        ``report.swapped`` — a concurrent compaction can abort it), or
        ``None`` when the grid is still balanced or another repartition
        is already in flight.
        """
        detector = self.drift_detector
        if detector is None:
            detector = DriftDetector(self.cube)
        if not self._repartition_lock.acquire(blocking=False):
            return None
        try:
            report = detector.check()
            if not report.drifted:
                return None
            rebuilt = repartition_cube(
                self.cube,
                self.relation,
                self._drift_pool or self.cube.base_table.pool,
                registry=self.registry,
            )
            self.repartitions.append(rebuilt)
            return rebuilt
        finally:
            self._repartition_lock.release()

    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        super().close(wait=wait)
        if self._owns_advisor and self.advisor is not None:
            self.advisor.close(wait=wait)
