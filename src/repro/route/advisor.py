"""Online materialization advisor: promote hot cuboids, demote cold ones.

:func:`repro.core.advisor.recommend_fragments` answers the *offline*
design question.  :class:`CubeAdvisor` closes the loop at runtime: it
counts which selection-dimension sets queries actually use, and under a
space budget (in Lemma 2's tuple-entry units) it

* **promotes** a hot, not-yet-materialized dimension set to a real
  cuboid — built from the *base-table-resident* tuples only (delta tuples
  are merged by every query separately, so materializing them twice
  would double-count) by :meth:`RankingCube.build`'s own scan -> group
  -> materialize routine, in the cube's encoding, and stamped with the
  cube's **current** epoch so the mixed-generation guard in
  :attr:`RankingCube.epoch` holds;
* **demotes** cold non-singleton cuboids to reclaim budget.  Singletons
  are never demoted: they are the covering safety net — as long as every
  selection dimension keeps its singleton cuboid, any query stays
  answerable (Section 4.2.1's covering always succeeds).

The new cuboid map goes in through :meth:`RankingCube.install`; a run
that loses a race to another install aborts, keeps its observations and
retries on the next round.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..core.cube import RankingCube, materialize, scan_rows
from ..core.cuboid import RankingCuboid
from ..core.daemon import MaintenanceDaemon
from ..obs.tracing import maybe_span
from ..relational.query import TopKQuery
from ..relational.table import Table


class AdvisorError(Exception):
    """Raised on advisor misuse (bad config, closed daemon)."""


@dataclass
class AdvisorReport:
    """What one :meth:`CubeAdvisor.advise_once` run did."""

    observations: int = 0
    promoted: tuple = ()         #: cuboid names newly materialized
    demoted: tuple = ()          #: cuboid names dropped
    skipped: tuple = ()          #: hot sets that did not fit the budget
    entries_before: int = 0
    entries_after: int = 0
    swapped: bool = False
    aborted: bool = False        #: another install landed first
    wall_s: float = 0.0


class CubeAdvisor(MaintenanceDaemon):
    """Popularity-driven cuboid promotion/demotion under a space budget.

    Parameters
    ----------
    cube / table / pool:
        The cube to maintain, its source relation (for selection values
        during promotion builds), and the buffer pool for fresh pages.
    space_budget_entries:
        Cap on total stored cuboid entries.  ``None`` means promotion is
        unconstrained and nothing is ever demoted for space.
    min_observations:
        A run is a no-op until this many queries have been observed since
        the last swap — popularity over a handful of queries is noise.
    hot_fraction / cold_fraction:
        A missing set whose query share is >= ``hot_fraction`` is a
        promotion candidate; a materialized non-singleton whose *usage*
        share (queries whose dimensions contain it) is <= ``cold_fraction``
        is a demotion candidate.
    max_promote_dims:
        Never materialize cuboids wider than this (space is ``~T``
        regardless, but build cost and marginal benefit fall off).
    decay:
        After each swap the popularity counters are multiplied by this
        factor, so the advisor tracks the *recent* workload.
    """

    error = AdvisorError
    thread_name = "cube-advisor"
    metric_prefix = "route.advisor"

    def __init__(
        self,
        cube: RankingCube,
        table: Table,
        pool,
        space_budget_entries: int | None = None,
        min_observations: int = 16,
        hot_fraction: float = 0.10,
        cold_fraction: float = 0.01,
        max_promote_dims: int = 3,
        decay: float = 0.5,
        registry=None,
        tracer=None,
    ):
        if min_observations < 1:
            raise AdvisorError("min_observations must be >= 1")
        if not 0 < hot_fraction <= 1 or not 0 <= cold_fraction < 1:
            raise AdvisorError("fractions must lie in (0,1] / [0,1)")
        if not 0 <= decay <= 1:
            raise AdvisorError("decay must lie in [0, 1]")
        super().__init__(registry)
        self.cube = cube
        self.table = table
        self.pool = pool
        self.space_budget_entries = space_budget_entries
        self.min_observations = min_observations
        self.hot_fraction = hot_fraction
        self.cold_fraction = cold_fraction
        self.max_promote_dims = max_promote_dims
        self.decay = decay
        self.tracer = tracer
        self._counts: dict[frozenset, float] = {}
        self._observed_since = 0
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------
    # workload observation
    # ------------------------------------------------------------------
    def observe(self, query: TopKQuery) -> None:
        """Count one query's selection-dimension set."""
        key = frozenset(query.selection_names)
        if not key:
            return
        with self._counts_lock:
            self._counts[key] = self._counts.get(key, 0.0) + 1.0
            self._observed_since += 1
        with self._cond:
            self._cond.notify_all()

    @property
    def observed_since_swap(self) -> int:
        with self._counts_lock:
            return self._observed_since

    # ------------------------------------------------------------------
    # one advisory run (foreground)
    # ------------------------------------------------------------------
    def advise_once(self) -> AdvisorReport:
        return self._pass()

    def _run(self) -> AdvisorReport:
        report = AdvisorReport()
        with self._counts_lock:
            counts = dict(self._counts)
            report.observations = self._observed_since
        total = sum(counts.values())
        state = self.cube.snapshot()
        report.entries_before = report.entries_after = sum(
            c.num_entries for c in state.cuboids.values()
        )
        if report.observations < self.min_observations or total <= 0:
            return report

        with maybe_span(self.tracer, "route.advise") as span:
            num_tuples = state.base_table.num_tuples
            # Promotion candidates: hot sets with no exact cuboid.  Delta
            # correctness bound: the delta rows only carry values for the
            # dimensions the cube was built over.
            legal_dims = self.cube._delta_selection_dims
            hot = [
                (key, count)
                for key, count in counts.items()
                if count / total >= self.hot_fraction
                and key not in state.cuboids
                and 1 <= len(key) <= self.max_promote_dims
                and key <= legal_dims
            ]
            hot.sort(key=lambda item: (-item[1], sorted(item[0])))

            # Demotion candidates: materialized non-singletons whose usage
            # share (any query constraining a superset uses them) is cold.
            def usage(key: frozenset) -> float:
                return sum(c for q, c in counts.items() if key <= q)

            cold = sorted(
                (
                    key
                    for key in state.cuboids
                    if len(key) > 1 and usage(key) / total <= self.cold_fraction
                ),
                key=lambda key: (usage(key), sorted(key)),
            )

            budget = self.space_budget_entries
            entries = report.entries_before
            promote: list[frozenset] = []
            demote: list[frozenset] = []
            skipped: list[frozenset] = []
            cold_pool = list(cold)
            # an already-over-budget cube sheds cold cuboids even with
            # nothing to promote
            while budget is not None and entries > budget and cold_pool:
                victim = cold_pool.pop(0)
                demote.append(victim)
                entries -= state.cuboids[victim].num_entries
            for key, _count in hot:
                added = num_tuples  # a cuboid stores one entry per tuple
                projected = entries + added
                while (
                    budget is not None and projected > budget and cold_pool
                ):
                    victim = cold_pool.pop(0)
                    demote.append(victim)
                    projected -= state.cuboids[victim].num_entries
                if budget is not None and projected > budget:
                    skipped.append(key)
                    continue
                promote.append(key)
                entries = projected

            report.skipped = tuple(
                ",".join(sorted(key)) for key in skipped
            )
            if not promote and not demote:
                return report

            new_cuboids = (
                self._build_promotions(state, promote, state.epoch)
                if promote
                else {}
            )

            # write-ahead ordering: fresh pages durable before the swap
            self.pool.flush()

            updated = {
                key: cuboid
                for key, cuboid in state.cuboids.items()
                if key not in demote
            }
            updated.update(new_cuboids)
            if not self.cube.install(state, cuboids=updated):
                # another install landed under us: the promoted cuboids
                # may index dead bids, and the demotions a dead map
                report.aborted = True
                return report

            with self._counts_lock:
                self._observed_since = 0
                if self.decay < 1.0:
                    self._counts = {
                        key: count * self.decay
                        for key, count in self._counts.items()
                        if count * self.decay >= 0.5
                    }

            report.promoted = tuple(c.name for c in new_cuboids.values())
            report.demoted = tuple(
                state.cuboids[key].name for key in demote
            )
            report.entries_after = sum(
                c.num_entries for c in updated.values()
            )
            report.swapped = True
            if span is not None:
                span.add_many(
                    promoted=len(report.promoted),
                    demoted=len(report.demoted),
                    entries=report.entries_after,
                )
        return report

    def _build_promotions(
        self, state, promote: list[frozenset], epoch: int
    ) -> dict[frozenset, RankingCuboid]:
        """Materialize the promoted sets from base-table-resident tuples:
        the snapshot's live rows (``tid < watermark``) minus its delta."""
        delta_tids = {tid for tid, _sel, _rank in state.delta}
        needed_dims = sorted(set().union(*promote))
        rows = scan_rows(
            self.table,
            state.grid.dims,
            needed_dims,
            keep=lambda tid: tid < state.watermark and tid not in delta_tids,
        )
        _base, built, _shards = materialize(
            self.pool,
            state.grid,
            self.table.schema,
            [(tuple(sorted(key)), None) for key in promote],
            rows,
            with_base=False,
            compress=state.compressed,
            epoch=epoch,
            tracer=self.tracer,
        )
        return built

    def _record_swap(self, report: AdvisorReport) -> None:
        self.registry.counter("route.advisor.promotions").inc(
            len(report.promoted)
        )
        self.registry.counter("route.advisor.demotions").inc(
            len(report.demoted)
        )
        self.registry.gauge("route.advisor.entries").set(report.entries_after)

    # ------------------------------------------------------------------
    # background daemon (MaintenanceDaemon)
    # ------------------------------------------------------------------
    def _pending(self) -> bool:
        return self.observed_since_swap >= self.min_observations
