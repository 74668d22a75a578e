"""Cuboid advisor: materialize the cuboids that save the most pages.

Choosing cuboids is the view-selection problem in the paper's terms:
Lemma 2's space against the covering cost of Figures 12-13.
:class:`CubeAdvisor` solves it greedily by benefit (Harinarayan,
Rajaraman and Ullman, SIGMOD 1996) over its *window*, the queries it
observed since its last run.  A family's cost is the sum over the window
of the cube estimate (:func:`~repro.core.estimate.estimate_cube_pages`,
which reads no page), skipping queries the family cannot cover; a
cuboid's benefit is the cost without it minus the cost with it.

Candidates are the window's selection sets that have no cuboid and lie
inside the dimensions the delta rows carry.  One scan of the
base-resident rows, grouped by the build's own routine, gives each the
per-cell counts its cuboid would store, so it is priced exactly as it
will be once installed.  Each greedy step promotes the candidate of
largest positive benefit (ties by sorted name); every cuboid stores one
entry per base tuple, so no per-entry ratio is needed.  A promotion the
space budget cannot take demotes non-singletons in ascending benefit
while the benefit given up stays below the candidate's, or is skipped;
an over-budget cube sheds its lowest-benefit non-singletons first.
Singletons are never demoted: they keep every query coverable (Section
4.2.1).

Promotions write the encoded runs that priced them (from base-resident
rows only: delta rows are merged by every query, so materializing them
would double-count), at the cube's current epoch, and go in through
:meth:`RankingCube.install`.  A run uses up its window whether it swaps
or not; a run that loses a race to another install aborts and keeps its
window for the retry.  Offline design is the same call: a cube of
singleton cuboids, a prior workload to :meth:`~CubeAdvisor.observe`
(Section 5's random three-condition queries), and
:meth:`~CubeAdvisor.advise_once`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.cube import (
    CubeError, RankingCube, _covering_cuboids, group_rows, resolve_scales,
    scan_rows,
)
from ..core.cuboid import RankingCuboid
from ..core.daemon import MaintenanceDaemon
from ..core.estimate import estimate_cube_pages
from ..core.pseudo import PseudoBlockMap
from ..obs.tracing import maybe_span
from ..relational.query import TopKQuery
from ..relational.table import Table
from ..storage.device import RANDOM_READ_WEIGHT


class AdvisorError(Exception):
    """Raised on advisor misuse (bad config, closed daemon)."""


@dataclass
class AdvisorReport:
    """What one :meth:`CubeAdvisor.advise_once` run did."""

    observations: int = 0
    promoted: tuple = ()         #: cuboid names newly materialized
    demoted: tuple = ()          #: cuboid names dropped
    skipped: tuple = ()          #: candidates that did not fit the budget
    benefit: float = 0.0         #: est. weighted pages saved over the window
    entries_before: int = 0
    entries_after: int = 0
    swapped: bool = False
    aborted: bool = False        #: another install landed first
    wall_s: float = 0.0


class Candidate(NamedTuple):
    """A cuboid priced but not built: what the estimate reads of one, and
    the encoded runs a promotion writes."""

    dims: tuple[str, ...]
    pseudo: PseudoBlockMap
    counts: dict[tuple, int]
    runs: list


class CubeAdvisor(MaintenanceDaemon):
    """Greedy benefit-driven cuboid promotion/demotion under a space budget.

    Parameters
    ----------
    cube / table / pool:
        The cube to maintain, its source relation (for selection values
        during promotion builds), and the buffer pool for fresh pages.
    space_budget_entries:
        Cap on total stored cuboid entries.  ``None`` means promotion is
        unconstrained and nothing is ever demoted for space.
    min_observations:
        A run is a no-op until the window holds this many queries.
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
        registry=None,
        tracer=None,
    ):
        if min_observations < 1:
            raise AdvisorError("min_observations must be >= 1")
        super().__init__(registry)
        self.cube = cube
        self.table = table
        self.pool = pool
        self.space_budget_entries = space_budget_entries
        self.min_observations = min_observations
        self.tracer = tracer
        self._window: list[TopKQuery] = []
        self._window_lock = threading.Lock()

    # ------------------------------------------------------------------
    # workload observation
    # ------------------------------------------------------------------
    def observe(self, query: TopKQuery) -> None:
        """Add one query with selections to the window."""
        if not query.selections:
            return
        with self._window_lock:
            self._window.append(query)
        with self._cond:
            self._cond.notify_all()

    @property
    def window_size(self) -> int:
        """Queries observed since the last completed run."""
        with self._window_lock:
            return len(self._window)

    # ------------------------------------------------------------------
    # one advisory run (foreground)
    # ------------------------------------------------------------------
    def advise_once(self) -> AdvisorReport:
        return self._pass()

    def _run(self) -> AdvisorReport:
        report = AdvisorReport()
        with self._window_lock:
            window = list(self._window)
        report.observations = len(window)
        state = self.cube.snapshot()
        report.entries_before = report.entries_after = sum(
            c.num_entries for c in state.cuboids.values()
        )
        if len(window) < self.min_observations:
            return report

        with maybe_span(self.tracer, "route.advise") as span:
            family, promote, demote, skipped = self._plan(state, window)
            report.skipped = tuple(",".join(sorted(key)) for key in skipped)
            if promote or demote:
                benefit = _saving(state, state.cuboids, family, window)
                new_cuboids = self._build_promotions(state, family, promote)
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
                report.promoted = tuple(c.name for c in new_cuboids.values())
                report.demoted = tuple(state.cuboids[key].name for key in demote)
                report.entries_after = sum(c.num_entries for c in updated.values())
                report.benefit = benefit
                report.swapped = True
            with self._window_lock:
                del self._window[:len(window)]
            if span is not None:
                span.add_many(
                    promoted=len(report.promoted),
                    demoted=len(report.demoted),
                    entries=report.entries_after,
                    benefit=report.benefit,
                )
        return report

    def _plan(self, state, window: list[TopKQuery]):
        """The greedy: ``(family, promote, demote, skipped)``."""
        shapes = [(frozenset(q.selection_names), q) for q in window]
        keys = sorted(
            {
                dims for dims, _q in shapes
                if dims not in state.cuboids
                and dims <= self.cube._delta_selection_dims
            },
            key=sorted,
        )
        pending = self._price_candidates(state, keys)
        family = dict(state.cuboids)
        budget = self.space_budget_entries
        entries = sum(c.num_entries for c in family.values())
        promote, demote, skipped = [], [], []

        def benefit(key, cuboid) -> float:
            rest = {k: c for k, c in family.items() if k != key}
            served = [q for dims, q in shapes if key <= dims]
            return _saving(state, rest, {**rest, key: cuboid}, served)

        def victims() -> list[tuple[float, frozenset]]:
            """Demotable cuboids by ascending benefit, then name."""
            ranked = sorted(
                (benefit(key, family[key]), sorted(key), key)
                for key in state.cuboids if len(key) > 1 and key in family
            )
            return [(gain, key) for gain, _name, key in ranked]

        over = budget is not None and entries > budget
        for _gain, key in victims() if over else ():
            if entries <= budget:
                break
            demote.append(key)
            entries -= family.pop(key).num_entries

        gains = None
        while pending:
            if gains is None:  # the family changed: re-price
                gains = {key: benefit(key, c) for key, c in pending.items()}
            key = min(pending, key=lambda k: (-gains[k], sorted(k)))
            gain = gains.pop(key)
            if gain <= 0:
                break
            candidate = pending.pop(key)
            projected = entries + state.base_table.num_tuples
            freed, given_up = [], 0.0
            if budget is not None and projected > budget:
                for loss, victim in victims():
                    if projected <= budget or given_up + loss >= gain:
                        break
                    freed.append(victim)
                    given_up += loss
                    projected -= family[victim].num_entries
                if projected > budget:
                    skipped.append(key)
                    continue
            for victim in freed:
                demote.append(victim)
                del family[victim]
            family[key] = candidate
            promote.append(key)
            entries = projected
            gains = None
        return family, promote, demote, skipped

    def _price_candidates(self, state, keys: list[frozenset]):
        """One scan of the snapshot's base-resident rows (``tid <
        watermark``, minus its delta), grouped as the build groups them:
        ``{key: Candidate}``, each counted from its run lengths."""
        if not keys:
            return {}
        delta_tids = np.array([tid for tid, _sel, _rank in state.delta], np.int64)
        rows = scan_rows(
            self.table,
            state.grid.dims,
            sorted(set().union(*keys)),
            keep=lambda tids: (tids < state.watermark) & ~np.isin(tids, delta_tids),
        )
        family = resolve_scales(
            state.grid, self.table.schema,
            [(tuple(sorted(key)), None) for key in keys],
        )
        _base, cuboid_runs = group_rows(
            state.grid, family, rows, tracer=self.tracer
        )
        return {
            frozenset(dims): Candidate(
                dims,
                PseudoBlockMap(state.grid, scale),
                {key: count for key, _data, count in runs},
                runs,
            )
            for (dims, scale), runs in zip(family, cuboid_runs)
        }

    def _build_promotions(
        self, state, family: dict, promote: list[frozenset]
    ) -> dict[frozenset, RankingCuboid]:
        """Write the promoted candidates' priced runs, at the snapshot's
        epoch."""
        built = {}
        for key in promote:
            dims, pseudo, _counts, runs = family[key]
            built[key] = RankingCuboid.from_runs(
                self.pool, dims, self.table.schema.cardinalities(dims),
                state.grid, runs, scale_override=pseudo.sf, epoch=state.epoch,
            )
        return built

    def _record_swap(self, report: AdvisorReport) -> None:
        counter = self.registry.counter
        counter("route.advisor.promotions").inc(len(report.promoted))
        counter("route.advisor.demotions").inc(len(report.demoted))
        self.registry.gauge("route.advisor.entries").set(report.entries_after)

    # ------------------------------------------------------------------
    # background daemon (MaintenanceDaemon)
    # ------------------------------------------------------------------
    def _pending(self) -> bool:
        return self.window_size >= self.min_observations


def _saving(state, before: dict, after: dict, queries) -> float:
    """Estimated weighted pages ``after`` saves over ``before`` across
    ``queries``; a query either family cannot cover is skipped."""
    total = 0.0
    for query in queries:
        try:
            total += estimate_cube_pages(
                state, _covering_cuboids(before, query.selection_names), query
            ) - estimate_cube_pages(
                state, _covering_cuboids(after, query.selection_names), query
            )
        except CubeError:
            continue
    return RANDOM_READ_WEIGHT * total
