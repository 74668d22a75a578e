"""Background delta compaction: merge the delta store into the cube.

:meth:`RankingCube.refresh_delta` absorbs appended tuples into an
in-memory, cell-indexed delta store that every query merges at answer
time (the classic delta-store strategy; the paper leaves maintenance as
future work).  Unbounded, that store grows every query's merge and
survives only as long as the process.  :class:`CubeCompactor` drains it
back into the materialization:

1. **snapshot** the cube's queryable state,
2. **classify** delta entries — a tuple whose ranking point lies inside
   the grid's full box is *absorbable*; an out-of-grid tuple stays
   *residual* in the delta, because :meth:`BlockGrid.locate` clamps to
   edge bins and a clamped tuple's real values can exceed its block's
   bounding box, which would break the frontier stop's lower-bound
   soundness,
3. **merge** — read the old base table's runs, then encode the
   absorbable entries in tid order with the build's own grouping routine
   (:func:`~repro.core.cube.group_rows`): key-ordered runs for the base
   table and each cuboid (the additions; the cuboids' run counts sum to
   :attr:`CompactionReport.cells_merged`),
4. **splice** fresh :class:`BaseBlockTable` / :class:`RankingCuboid`
   objects onto new pages: each store's old runs and its added runs are
   merged as bytes (:meth:`ChainStore.splice`), so the image equals a
   from-scratch build over old + delta; cuboid epochs bump so
   serving-cache keys from the old generation can never satisfy
   new-generation lookups,
5. **flush** the buffer pool, then :meth:`RankingCube.install` the new
   base table and cuboids with the residual entries as the delta.  If
   another install (a compaction, re-partition or advisor swap) landed
   since the snapshot, nothing changes and the run reports ``aborted``;
   the delta is still pending, so the next run absorbs it.

Crash consistency is exercised by ``tests/faults/test_compaction_crash.py``
through the :data:`COMPACTION_FAULT_POINTS` hook: killing the compactor
at any point leaves the cube answering from either the pre- or post-merge
state, never a partial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.tracing import maybe_span
from .cube import RankingCube, ScannedRows, group_rows
from .cuboid import RankingCuboid
from .daemon import MaintenanceDaemon

#: Named instants where the crash harness may kill a compaction run, in
#: execution order.  None of them fires while the cube's state lock is
#: held (the harness's "kill" raises through compact_once, and a raise
#: under the lock would not model a process death — a dead process holds
#: no locks).
COMPACTION_FAULT_POINTS = (
    "drain",          # after snapshotting cube state
    "classify",       # after splitting absorbable vs residual
    "base-read",      # after reading the old base table's runs
    "base-built",     # after materializing the new base table
    "cuboids-built",  # after materializing every new cuboid
    "flushed",        # after the pre-swap durability flush
    "swapped",        # after the install (swap + listeners)
    "notified",       # after the on_swap callback
)


class CompactionError(Exception):
    """Raised on compactor misuse (start after close, bad config)."""


@dataclass
class CompactionReport:
    """What one :meth:`CubeCompactor.compact_once` run did."""

    absorbed: int = 0            #: delta tuples merged into the materialization
    residual: int = 0            #: out-of-grid tuples left in the delta
    cells_merged: int = 0        #: distinct cuboid cells receiving new tuples
    cuboids_rebuilt: int = 0
    swapped: bool = False        #: False: nothing absorbable, or aborted
    aborted: bool = False        #: another install landed first
    wall_s: float = 0.0
    epochs: dict = field(default_factory=dict)  #: cuboid name -> new epoch


class CubeCompactor(MaintenanceDaemon):
    """Foreground and background delta compaction for one cube.

    Parameters
    ----------
    cube:
        The cube to maintain.
    pool:
        Buffer pool of the cube's device (supplies page allocation, the
        durability flush, and — when present — the metrics registry).
    min_delta:
        Background mode only: the worker compacts once the delta holds at
        least this many tuples (and on every explicit :meth:`wake`).
    tracer:
        Optional tracer; each run emits a ``compact`` span tree.
    fault_hook:
        Test seam: called with each :data:`COMPACTION_FAULT_POINTS` name
        as the run passes it; raising simulates a kill at that instant.
    on_swap:
        Optional callback invoked with the number of absorbed tuples
        after each successful install (and after the ``swapped`` fault
        point, so a simulated kill models a crash *between* the swap and
        the callback).  The ingestion layer uses it to retire drained
        delta runs and advance the WAL checkpoint.
    """

    error = CompactionError
    thread_name = "cube-compactor"
    metric_prefix = "compact"

    def __init__(
        self,
        cube: RankingCube,
        pool,
        min_delta: int = 256,
        tracer=None,
        fault_hook=None,
        on_swap=None,
    ):
        if min_delta < 1:
            raise CompactionError(f"min_delta must be >= 1, got {min_delta}")
        super().__init__(getattr(pool, "registry", None))
        self.cube = cube
        self.pool = pool
        self.min_delta = min_delta
        self.tracer = tracer
        self.fault_hook = fault_hook
        self.on_swap = on_swap
        #: residual watermark: a delta of only unabsorbable tuples must not
        #: busy-loop the worker; it re-runs only when the delta grows past
        #: what the last run left behind
        self._last_residual = 0

    # ------------------------------------------------------------------
    # one compaction run (foreground)
    # ------------------------------------------------------------------
    def compact_once(self) -> CompactionReport:
        """Drain the current delta into the materialization, atomically.

        Safe to call while queries run: the swap is a pointer flip under
        the cube's state lock, and queries execute against per-query
        snapshots.  Returns a report; ``swapped=False`` means nothing was
        absorbable (the delta was empty or entirely out-of-grid) or, with
        ``aborted=True``, that another install landed first.
        """
        return self._pass()

    def _run(self) -> CompactionReport:
        report = CompactionReport()
        cube = self.cube
        with maybe_span(self.tracer, "compact") as span:
            state = cube.snapshot()
            self._fault("drain")

            with maybe_span(self.tracer, "compact.classify"):
                lower, upper = state.grid.full_box()
                absorbable: list[tuple[int, dict, dict]] = []
                residual: list[tuple[int, dict, dict]] = []
                for entry in state.delta:
                    _tid, _sel, rank_values = entry
                    point = [rank_values[d] for d in state.grid.dims]
                    inside = all(
                        lo <= v <= hi for v, lo, hi in zip(point, lower, upper)
                    )
                    (absorbable if inside else residual).append(entry)
            self._fault("classify")
            report.residual = len(residual)
            if not absorbable:
                self._last_residual = len(residual)
                return report

            # --- merge: the absorbed rows per key, in tid order -----------
            with maybe_span(self.tracer, "compact.merge"):
                base_runs = list(state.base_table.runs())
                self._fault("base-read")
                ordered = sorted(absorbable, key=lambda entry: entry[0])
                # the build's grouping routine: encoded runs, joined onto
                # the old ones
                sel_dims = tuple(sorted(set().union(*state.cuboids)))
                ranks = [[rank[d] for d in state.grid.dims] for *_, rank in ordered]
                sels = [[sel[d] for d in sel_dims] for _, sel, _ in ordered]
                rows = ScannedRows(
                    sel_dims, np.array([entry[0] for entry in ordered]),
                    np.array(ranks, float), np.array(sels, int),
                )
                base_additions, cuboid_additions = group_rows(
                    state.grid,
                    [(c.dims, c.scale_factor) for c in state.cuboids.values()],
                    rows,
                )
                cell_additions = dict(zip(state.cuboids, cuboid_additions))

            # --- splice the stores onto fresh pages -----------------------
            with maybe_span(self.tracer, "compact.rebuild"):
                new_base = state.base_table.spliced(base_runs, base_additions)
                self._fault("base-built")
                new_cuboids: dict[frozenset, RankingCuboid] = {
                    key: cuboid.spliced(cuboid.runs(), cell_additions[key])
                    for key, cuboid in state.cuboids.items()
                }
                self._fault("cuboids-built")

            # --- durability: new pages hit the device before the swap -----
            with maybe_span(self.tracer, "compact.flush"):
                self.pool.flush()
            self._fault("flushed")

            # --- install: the snapshot's delta prefix is what we merged ---
            if not cube.install(
                state, base_table=new_base, cuboids=new_cuboids,
                residual=residual,
            ):
                report.aborted = True
                return report
            self._last_residual = len(residual)
            self._fault("swapped")
            if self.on_swap is not None:
                self.on_swap(len(ordered))
            self._fault("notified")

            report.absorbed = len(ordered)
            report.cells_merged = sum(map(len, cell_additions.values()))
            report.cuboids_rebuilt = len(new_cuboids)
            report.swapped = True
            report.epochs = {c.name: c.epoch for c in new_cuboids.values()}
            if span is not None:
                span.add_many(
                    absorbed=report.absorbed,
                    residual=report.residual,
                    cuboids_rebuilt=report.cuboids_rebuilt,
                )
        return report

    def _fault(self, point: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(point)

    def _record_swap(self, report: CompactionReport) -> None:
        self.registry.counter("compact.tuples_absorbed").inc(report.absorbed)
        self.registry.counter("compact.tuples_residual").inc(report.residual)
        self.registry.counter("compact.cells_merged").inc(report.cells_merged)
        self.registry.counter("compact.cuboids_rebuilt").inc(
            report.cuboids_rebuilt
        )
        self.registry.histogram("compact.wall_s").observe(report.wall_s)

    # ------------------------------------------------------------------
    # background worker (MaintenanceDaemon)
    # ------------------------------------------------------------------
    def _pending(self) -> bool:
        return self.cube.delta_size > max(self._last_residual, self.min_delta - 1)
