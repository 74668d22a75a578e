"""Adaptive routing in front of the serving tier.

:class:`RoutedQueryService` is a :class:`~repro.serve.service.QueryService`
whose per-query execution goes through an
:class:`~repro.route.router.AdaptiveRouter` instead of straight into the
cube executor: each query is priced across the cube / fragment / baseline
paths and routed to the cheapest estimate; the cube path runs on the
service's own executor and caches.  The answer contract is
untouched — every path returns byte-identical results, so a client cannot
tell which path served it except through ``route.*`` metrics.

The service can also own the two adaptive maintenance daemons:

* ``auto_advise_observations=N`` attaches a
  :class:`~repro.route.advisor.CubeAdvisor` that sees every routed
  query and, in the background, promotes the cuboids that save the most
  estimated pages over them and demotes the ones that save the least
  under ``advisor_budget_entries``.
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
from ..route.advisor import AdvisorError, CubeAdvisor
from ..route.drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftDetector,
    RepartitionReport,
    repartition_cube,
)
from ..route.router import AdaptiveRouter
from .service import QueryService


class RoutedQueryService(QueryService):
    """A query service whose front door is the adaptive router.

    Accepts every :class:`QueryService` parameter (the cube path runs on
    the service's executor) plus:

    Parameters
    ----------
    fragment_cube:
        Optional fragment-family cube added as a third route path.
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
        auto_advise_observations: int | None = None,
        advisor_budget_entries: int | None = None,
        drift_check_interval: int | None = None,
        drift_threshold: float = DEFAULT_DRIFT_THRESHOLD,
        **service_kwargs,
    ):
        # every check runs before QueryService.__init__ hooks a cache
        # listener on the cube: a rejected constructor leaves none behind
        if relation is None:
            raise ValueError("RoutedQueryService needs the base relation")
        if drift_check_interval is not None and drift_check_interval < 1:
            raise ValueError("drift_check_interval must be >= 1")
        if auto_advise_observations is not None and auto_advise_observations < 1:
            raise AdvisorError("min_observations must be >= 1")
        #: the pages maintenance installs are written through
        self._maintenance_pool = getattr(cube.base_table, "pool", None)
        if self._maintenance_pool is None and (
            auto_advise_observations is not None or drift_check_interval is not None
        ):
            raise ValueError(
                "auto_advise_observations and drift_check_interval need a "
                "cube whose base table exposes its buffer pool"
            )
        self.drift_detector: DriftDetector | None = None
        self._drift_interval = drift_check_interval
        if drift_check_interval is not None:
            self.drift_detector = DriftDetector(cube, threshold=drift_threshold)
        super().__init__(cube, relation, **service_kwargs)
        self.router = AdaptiveRouter.for_cube(
            cube,
            relation,
            fragment_cube=fragment_cube,
            executor=self.executor,
            registry=self.registry,
        )
        self.relation = relation
        self.advisor: CubeAdvisor | None = None
        self._owns_advisor = auto_advise_observations is not None
        if self._owns_advisor:
            self.advisor = CubeAdvisor(
                cube,
                relation,
                self._maintenance_pool,
                space_budget_entries=advisor_budget_entries,
                min_observations=auto_advise_observations,
                registry=self.registry,
            ).start()
        self._routed_count = 0
        self._route_lock = threading.Lock()
        self._repartition_lock = threading.Lock()
        self.repartitions: list[RepartitionReport] = []

    # ------------------------------------------------------------------
    def _answer(self, query: TopKQuery, trace, tracer) -> QueryResult:
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
        ``report.swapped`` — another maintenance install can abort it), or
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
                self._maintenance_pool or self.cube.base_table.pool,
                registry=self.registry,
            )
            self.repartitions.append(rebuilt)
            return rebuilt
        finally:
            self._repartition_lock.release()

    # ------------------------------------------------------------------
    def _close_engine(self, wait: bool) -> None:
        super()._close_engine(wait)
        if self._owns_advisor and self.advisor is not None:
            self.advisor.close(wait=wait)
