"""The ranking cube (Section 3): base block table + cuboids + meta info.

A :class:`RankingCube` is the paper's triple ``(T, C, M)``:

* ``T`` — the base block table over the ranking dimensions,
* ``C`` — the set of materialized ranking cuboids (all ``2^S - 1``
  non-empty selection-dimension subsets for a full cube; a restricted
  family for ranking fragments — see :mod:`repro.core.fragments`),
* ``M`` — the meta information: bin boundaries per ranking dimension and
  the scale factor per cuboid.

The cube also owns the *covering cuboid* selection of Section 4.2.1 (the
max step + min step), which the query executor uses for both the fully
materialized and the fragmented case.
"""

from __future__ import annotations

import itertools
import threading
import time
from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from ..obs.tracing import maybe_span
from ..relational.table import Table
from ..storage.buffer import BufferPool
from ..storage.pages import RecordCodec
from .base_table import BaseBlockTable
from .blocks import BlockGrid
from .cuboid import RankingCuboid
from .partition import EquiDepthPartitioner, Partitioner
from .pseudo import PseudoBlockMap, scale_factor

DEFAULT_BLOCK_SIZE = 30  # the paper's default B (expected tuples per block)


class CubeError(Exception):
    """Raised for cube construction and covering failures."""


class RankingCube:
    """A materialized rank-aware cube over one relation.

    The materialization is immutable (the chain stores are build-once), but
    the cube supports *incremental maintenance* through a delta store: new
    tuples appended to the relation after the build are absorbed with
    :meth:`refresh_delta` into a small in-memory :class:`DeltaStore` that
    the query executor merges into every answer.  When the delta grows
    past a configured fraction of the data, rebuild or compact (the
    classic delta-store / merge maintenance strategy; the paper leaves
    updates as future work).
    """

    def __init__(
        self,
        grid: BlockGrid,
        base_table: BaseBlockTable,
        cuboids: dict[frozenset, RankingCuboid],
        block_size: int,
    ):
        self.grid = grid
        self.base_table = base_table
        self.cuboids = cuboids
        self.block_size = block_size
        #: tid watermark: tuples with tid >= this are not in the cube yet
        self.watermark = base_table.num_tuples
        self._delta_selection_dims: frozenset = frozenset().union(
            *cuboids
        ) if cuboids else frozenset()
        #: serving-layer caches subscribed to maintenance events
        self._invalidation_listeners: list = []
        #: guards every mutation of cube state visible to queries — only
        #: :meth:`install` and :meth:`refresh_delta` change it, under this
        #: lock, and :meth:`snapshot` reads it under the same lock, so a
        #: maintenance swap is atomic from any query's view
        self._state_lock = threading.Lock()
        #: delta store: (tid, {sel dim: value}, {rank dim: value}) entries
        self._delta = []
        #: maintenance generation: bumped by every :meth:`install` (not by
        #: appends) and recorded by every snapshot
        self._generation = 0

    @property
    def _delta(self) -> "DeltaStore":
        return self._delta_store

    @_delta.setter
    def _delta(self, entries) -> None:
        """Install a fresh store over ``entries`` (the maintenance swaps;
        callers hold the state lock)."""
        self._delta_store = DeltaStore(entries, self._state_lock)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        table: Table,
        ranking_dims: Sequence[str] | None = None,
        selection_dims: Sequence[str] | None = None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        partitioner: Partitioner | None = None,
        cuboid_sets: Iterable[Sequence[str]] | None = None,
        grid: BlockGrid | None = None,
        pseudo_scale_override: int | None = None,
        tracer=None,
    ) -> "RankingCube":
        """Materialize a ranking cube from a loaded table.

        Parameters
        ----------
        table:
            Source relation (also supplies the buffer pool / device, so the
            cube's I/O shares the relation's meter).
        ranking_dims / selection_dims:
            Dimensions to cube over; default to every ranking / selection
            attribute of the table's schema.
        block_size:
            Expected tuples per base block (the paper's ``B``; default 30).
        partitioner:
            Geometry partition strategy (default equi-depth, as the paper).
        cuboid_sets:
            Which selection-dimension subsets to materialize.  ``None``
            materializes the full cube (every non-empty subset).  Ranking
            fragments pass the per-fragment family instead.
        grid:
            Pre-built grid (the paper's worked example supplies explicit
            boundaries); overrides ``partitioner``.
        tracer:
            Optional :class:`~repro.obs.tracing.Tracer`; when given, the
            build emits a ``build`` span tree (scan/group/materialize).
        """
        started = time.perf_counter()
        registry = getattr(table.pool, "registry", None)
        with maybe_span(tracer, "build") as build_span:
            schema = table.schema
            if ranking_dims is None:
                ranking_dims = schema.ranking_names
            if selection_dims is None:
                selection_dims = schema.selection_names
            ranking_dims = tuple(ranking_dims)
            if not ranking_dims:
                raise CubeError("a ranking cube needs at least one ranking dimension")

            # One scan of the relation gathers everything the build needs.
            with maybe_span(tracer, "build.scan"):
                rows = scan_rows(table, ranking_dims, selection_dims)
                if not len(rows.tids):
                    raise CubeError(
                        "cannot build a ranking cube over an empty relation"
                    )

            if grid is None:
                if partitioner is None:
                    partitioner = EquiDepthPartitioner()
                grid = partitioner.build_grid(
                    ranking_dims, rows.points.T.tolist(), block_size
                )

            if cuboid_sets is None:
                cuboid_sets = full_cube_sets(selection_dims)
            family: dict[frozenset, tuple] = {}
            for dims in map(tuple, cuboid_sets):
                missing = [d for d in dims if d not in rows.selection_dims]
                if missing:
                    raise CubeError(f"unknown selection dimensions {missing}")
                family.setdefault(frozenset(dims), (dims, pseudo_scale_override))
            base_table, cuboids = materialize(
                table.pool, grid, schema, list(family.values()), rows,
                tracer=tracer,
            )

            if build_span is not None:
                build_span.add_many(tuples=len(rows.tids), cuboids=len(cuboids))
        if registry is not None:
            registry.counter("build.runs").inc()
            registry.counter("build.tuples").inc(len(rows.tids))
            registry.counter("build.cuboids").inc(len(cuboids))
            registry.histogram("build.wall_s").observe(time.perf_counter() - started)
        return cls(grid, base_table, cuboids, block_size)

    # ------------------------------------------------------------------
    # covering cuboids (Section 4.2.1)
    # ------------------------------------------------------------------
    def covering_cuboids(self, query_dims: Sequence[str]) -> list[RankingCuboid]:
        """The minimum covering set MS for a query's selection dimensions.

        Max step: keep candidate cuboids whose dims are subsets of the
        query dims and maximal among such.  Min step: the smallest
        sub-family whose union equals the query dims (exact search for
        small candidate sets, greedy beyond that).  A query with no
        selection dimensions returns the empty list — the executor then
        reads base blocks directly.
        """
        return _covering_cuboids(self.cuboids, query_dims)

    def cuboid(self, dims: Sequence[str]) -> RankingCuboid:
        """The cuboid materialized exactly on ``dims``."""
        try:
            return self.cuboids[frozenset(dims)]
        except KeyError:
            raise CubeError(f"no cuboid on dimensions {tuple(dims)}") from None

    # ------------------------------------------------------------------
    # cache invalidation hooks (serving layer)
    # ------------------------------------------------------------------
    def add_invalidation_listener(self, listener) -> None:
        """Subscribe a shared cache to this cube's maintenance events.

        ``listener(cuboid_names)`` is called with the names of every
        cuboid of this cube whenever the maintenance paths absorb new
        tuples (:meth:`refresh_delta`) — conservatively, since a delta
        append changes what the *complete* answer for any cached cell is,
        even though the materialized tid lists themselves are immutable.
        :class:`repro.serve.cache.PseudoBlockCache.invalidate_cuboids` is
        the canonical listener.
        """
        self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(self, listener) -> None:
        try:
            self._invalidation_listeners.remove(listener)
        except ValueError:
            pass

    @property
    def cuboid_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.cuboids.values())

    def _notify_invalidation(self) -> None:
        names = self.cuboid_names
        for listener in list(self._invalidation_listeners):
            listener(names)

    # Listeners are live serving-layer caches; a persisted snapshot must
    # not capture them (they hold locks and process-local state).  The
    # copy happens under the state lock so a pickle taken while a
    # maintenance install is swapping state captures either the old or
    # the new (base_table, cuboids, delta) triple — never a mix.
    # The delta pickles as its plain entry list; the cell indexes are
    # rebuilt on first use, bound to the loaded cube's fresh lock.  The
    # maintenance generation is, like the lock, process-local: no
    # snapshot outlives the process that took it.
    def __getstate__(self):
        with self._state_lock:
            state = self.__dict__.copy()
            state["_delta"] = list(state.pop("_delta_store").entries)
        state["_invalidation_listeners"] = []
        del state["_state_lock"], state["_generation"]
        return state

    def __setstate__(self, state):
        entries = state.pop("_delta")
        self.__dict__.update(state)
        self._invalidation_listeners = []
        self._state_lock = threading.Lock()
        self._delta = entries
        self._generation = 0

    # ------------------------------------------------------------------
    # consistent read snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "CubeSnapshot":
        """An immutable view of the queryable cube state.

        Executors capture one snapshot per query and resolve every read
        (covering cuboids, base blocks, delta matches) against it, so a
        concurrent compaction swap can never hand a single query a mix of
        old and new state.  The delta is pinned as a prefix of the
        append-only store, not copied.
        """
        with self._state_lock:
            return CubeSnapshot(
                grid=self.grid,
                base_table=self.base_table,
                cuboids=dict(self.cuboids),
                delta_store=self._delta_store,
                delta_size=len(self._delta_store),
                watermark=self.watermark,
                block_size=self.block_size,
                generation=self._generation,
            )

    def install(
        self,
        snapshot: "CubeSnapshot",
        *,
        grid: BlockGrid | None = None,
        base_table: BaseBlockTable | None = None,
        cuboids: dict[frozenset, RankingCuboid] | None = None,
        residual: Iterable[tuple[int, dict, dict]] = (),
    ) -> bool:
        """Replace parts of the cube with stores rebuilt from ``snapshot``.

        The one writer of the materialization: compaction, re-partition
        and the cuboid advisor build fresh stores from a snapshot, flush
        the pool (write-ahead: new pages are durable before anything
        references them) and call this.  If another install landed since
        ``snapshot``, the stores were built from dead state: nothing
        changes and it returns ``False`` (the caller reports an abort).
        Otherwise the given parts replace the current ones under the state
        lock; the delta (live rows the base table lacks) changes with the
        base table, to ``residual`` plus every entry appended after the
        snapshot.  Invalidation listeners run after the lock is released.
        """
        with self._state_lock:
            if self._generation != snapshot.generation:
                return False
            self._generation += 1
            if grid is not None:
                self.grid = grid
            if cuboids is not None:
                self.cuboids = cuboids
            if base_table is not None:
                self.base_table = base_table
                self._delta = (
                    list(residual) + self._delta.entries[snapshot.delta_size:]
                )
        self._notify_invalidation()
        return True

    # ------------------------------------------------------------------
    # incremental maintenance (delta store)
    # ------------------------------------------------------------------
    def refresh_delta(self, table: Table) -> int:
        """Absorb tuples appended to ``table`` since the build/last refresh.

        Returns how many new tuples entered the delta store.  Queries see
        them immediately (the executor merges the delta); the
        materialization itself is untouched.
        """
        schema = table.schema
        sel_pos = {d: schema.position(d) for d in sorted(self._delta_selection_dims)}
        rank_pos = {d: schema.position(d) for d in self.grid.dims}
        # Heap reads happen outside the lock (they can do I/O, one page
        # per run of appended tids); only the append + watermark bump is
        # a critical section.
        start = self.watermark
        target = table.num_rows
        entries = [
            (
                tid,
                {d: int(row[p]) for d, p in sel_pos.items()},
                {d: float(row[p]) for d, p in rank_pos.items()},
            )
            for tid, row in enumerate(table.fetch_tid_range(start, target), start)
        ]
        with self._state_lock:
            # a concurrent refresh may already have absorbed part of the range
            entries = [entry for entry in entries if entry[0] >= self.watermark]
            self._delta_store.extend(entries)
            self.watermark = max(self.watermark, target)
        if entries:
            self._notify_invalidation()
        return len(entries)

    @property
    def delta_size(self) -> int:
        return len(self._delta_store)

    @property
    def epoch(self) -> int:
        """The cube's materialization generation (see
        :attr:`CubeSnapshot.epoch`)."""
        return self.snapshot().epoch

    def needs_rebuild(self, max_delta_fraction: float = 0.1) -> bool:
        """Whether the delta store has outgrown the materialization."""
        return self.delta_size > max_delta_fraction * max(1, self.base_table.num_tuples)

    # ------------------------------------------------------------------
    # meta information M
    # ------------------------------------------------------------------
    @property
    def bin_boundaries(self) -> dict[str, tuple[float, ...]]:
        return dict(zip(self.grid.dims, self.grid.boundaries))

    @property
    def scale_factors(self) -> dict[str, int]:
        return {cuboid.name: cuboid.scale_factor for cuboid in self.cuboids.values()}

    @property
    def ranking_dims(self) -> tuple[str, ...]:
        return self.grid.dims

    @property
    def size_in_bytes(self) -> int:
        cuboid_bytes = sum(c.size_in_bytes for c in self.cuboids.values())
        return self.base_table.size_in_bytes + cuboid_bytes

    def describe(self) -> str:
        """Human-readable inventory of the materialization."""
        lines = [
            f"RankingCube over N=({', '.join(self.grid.dims)}), "
            f"B={self.block_size}, bins={self.grid.bins_per_dim}",
            f"  base block table: {self.base_table.num_tuples} tuples, "
            f"{self.base_table.size_in_bytes} bytes",
        ]
        for key in sorted(self.cuboids, key=lambda k: (len(k), sorted(k))):
            cuboid = self.cuboids[key]
            lines.append(
                f"  cuboid {cuboid.name}: sf={cuboid.scale_factor}, "
                f"{cuboid.num_entries} entries, {cuboid.size_in_bytes} bytes"
            )
        return "\n".join(lines)


class CubeSnapshot:
    """A point-in-time, immutable view of a cube's queryable state.

    Holds the exact ``(base_table, cuboids, delta)`` triple that was
    current when :meth:`RankingCube.snapshot` ran.  Store objects are
    build-once and never mutated in place (maintenance swaps whole
    objects), so sharing them here is safe; the cuboids dict is
    shallow-copied so later swaps cannot alias into the snapshot, and the
    delta is the first ``delta_size`` entries of an append-only
    :class:`DeltaStore`, which later appends never reach.
    """

    __slots__ = (
        "grid", "base_table", "cuboids", "delta_store", "delta_size",
        "watermark", "block_size", "generation",
    )

    def __init__(
        self, grid, base_table, cuboids, delta_store, delta_size, watermark,
        block_size, generation,
    ):
        self.grid = grid
        self.base_table = base_table
        self.cuboids = cuboids
        self.delta_store = delta_store
        self.delta_size = delta_size
        self.watermark = watermark
        self.block_size = block_size
        #: the cube's maintenance generation (see :meth:`RankingCube.install`)
        self.generation = generation

    @property
    def delta(self) -> list[tuple[int, dict, dict]]:
        """The pinned delta entries, in append order (a copy)."""
        return self.delta_store.entries[:self.delta_size]

    def covering_cuboids(self, query_dims: Sequence[str]) -> list[RankingCuboid]:
        """Section 4.2.1 covering over the snapshotted cuboid family."""
        return _covering_cuboids(self.cuboids, query_dims)

    def delta_matches(self, selections: dict) -> list[tuple[int, dict]]:
        """Snapshotted delta tuples satisfying the selection conditions,
        as ``(tid, {ranking dim: value})`` pairs in append order; the
        executor scores them alongside block-retrieved tuples."""
        return self.delta_store.matches(selections, self.delta_size)

    @property
    def epoch(self) -> int:
        """The materialization generation this snapshot pinned.

        Compaction and re-partition rebuild every cuboid with a bumped
        epoch and install them together (the advisor stamps promotions
        with the current one), so the per-cuboid epochs always agree;
        this is that common value (0 for a freshly built cube).  Snapshot
        manifests pin it so a reloaded or replicated deployment can prove
        which generation it serves.
        """
        epochs = {c.epoch for c in self.cuboids.values()}
        if len(epochs) > 1:
            raise CubeError(f"mixed cuboid generations: {sorted(epochs)}")
        return epochs.pop() if epochs else 0


def _covering_cuboids(
    cuboids: dict[frozenset, RankingCuboid], query_dims: Sequence[str]
) -> list[RankingCuboid]:
    """Shared covering-cuboid selection over any cuboid family mapping."""
    wanted = frozenset(query_dims)
    if not wanted:
        return []
    candidates = [key for key in cuboids if key <= wanted]
    if not candidates:
        raise CubeError(f"no materialized cuboid covers any of {sorted(wanted)}")
    covered = frozenset().union(*candidates)
    if covered != wanted:
        raise CubeError(
            f"dimensions {sorted(wanted - covered)} are not materialized "
            "in any cuboid"
        )
    maximal = [
        key for key in candidates
        if not any(key < other for other in candidates)
    ]
    chosen = _minimum_cover(maximal, wanted)
    return [cuboids[key] for key in chosen]


class DeltaStore:
    """The delta's entries, append-only, with a cell index per queried
    dimension set.

    Entries are ``(tid, {sel dim: value}, {rank dim: value})`` in append
    order.  A reader pins a prefix by its length (a
    :class:`CubeSnapshot`) and reads only positions below it; the entry
    list and every posting list only grow, so a pinned prefix never
    changes.  Every mutation -- :meth:`extend` and the first-use build of
    an index -- happens under ``lock`` (the owning cube's state lock);
    reads take no lock.  Maintenance swaps replace the whole store.
    """

    __slots__ = ("entries", "lock", "_indexes")

    def __init__(self, entries: Iterable[tuple[int, dict, dict]], lock):
        self.entries: list[tuple[int, dict, dict]] = list(entries)
        self.lock = lock
        #: sorted dims -> {cell: ascending entry positions}
        self._indexes: dict[tuple, dict] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def extend(self, entries: Iterable[tuple[int, dict, dict]]) -> None:
        """Append entries and index them (the caller holds :attr:`lock`)."""
        start = len(self.entries)
        self.entries.extend(entries)
        for dims, index in self._indexes.items():
            _index_cells(index, dims, self.entries, start)

    def matches(self, selections: dict, length: int) -> list[tuple[int, dict]]:
        """``(tid, rank values)`` of the first ``length`` entries whose
        selection values equal ``selections``, in append order."""
        entries = self.entries
        if not length:
            return []
        if not selections:
            return [(tid, rank) for tid, _sel, rank in entries[:length]]
        dims = tuple(sorted(selections))
        index = self._indexes.get(dims)
        if index is None:
            index = self._build(dims)
        positions = index.get(itemgetter(*dims)(selections))
        if not positions:
            return []
        pinned = positions[:bisect_left(positions, length)]
        return [(entries[p][0], entries[p][2]) for p in pinned]

    def _build(self, dims: tuple) -> dict[tuple, list[int]]:
        with self.lock:
            index = self._indexes.get(dims)
            if index is None:
                index = {}
                _index_cells(index, dims, self.entries, 0)
                self._indexes[dims] = index
        return index


def _index_cells(index: dict, dims: tuple, entries: list, start: int) -> None:
    """Post ``entries[start:]`` to ``index`` under their ``dims`` cell, as
    ``itemgetter(*dims)`` reads it off a selection dict."""
    cell_of = itemgetter(*dims)
    sels = [sel for _tid, sel, _rank in entries[start:]]
    try:
        cells = list(map(cell_of, sels))
    except KeyError:  # an entry without one of the dims posts None there
        cells = [cell_of({d: sel.get(d) for d in dims}) for sel in sels]
    for position, cell in enumerate(cells, start):
        postings = index.get(cell)
        if postings is None:
            index[cell] = [position]
        else:
            postings.append(position)


def full_cube_sets(selection_dims: Sequence[str]) -> list[tuple[str, ...]]:
    """Every non-empty subset of the selection dimensions (full cube)."""
    dims = tuple(selection_dims)
    sets: list[tuple[str, ...]] = []
    for size in range(1, len(dims) + 1):
        sets.extend(itertools.combinations(dims, size))
    return sets


class ScannedRows(NamedTuple):
    """One scan's rows in tid order, as columns: ``tids`` (int64),
    ``points`` an ``(n, R)`` float64 array over the ranking dimensions,
    ``sel_rows`` an ``(n, S)`` int64 array over ``selection_dims``."""

    selection_dims: tuple[str, ...]
    tids: np.ndarray
    points: np.ndarray
    sel_rows: np.ndarray


def scan_rows(
    table: Table,
    ranking_dims: Sequence[str],
    selection_dims: Sequence[str],
    keep=None,
) -> ScannedRows:
    """One sequential scan of ``table`` into columns, each heap page
    decoded whole; ``keep(tids)``, a boolean mask over the tids, restricts
    it (a maintenance rebuild reads a snapshot's live or base-resident
    rows)."""
    records = table.heap.scan_array()
    if keep is not None:
        records = records[keep(records["f0"])]

    def columns(dims, dtype):
        fields = [records[f"f{1 + table.schema.position(d)}"] for d in dims]
        return np.array(fields, dtype).reshape(len(dims), len(records)).T

    return ScannedRows(
        tuple(selection_dims),
        records["f0"].astype(np.int64),
        columns(ranking_dims, np.float64),
        columns(selection_dims, np.int64),
    )


def materialize(
    pool: BufferPool,
    grid: BlockGrid,
    schema,
    family: Sequence[tuple[tuple[str, ...], int | None]],
    rows: ScannedRows,
    *,
    epoch: int = 0,
    tracer=None,
) -> tuple[BaseBlockTable, dict[frozenset, RankingCuboid]]:
    """Group ``rows`` on ``grid`` and write fresh stores: the base block
    table and one cuboid per ``(dims, scale factor)`` of ``family``
    (``None``: the computed factor), stamped ``epoch``.  Returns
    ``(base table, {dims set: cuboid})``."""
    family = resolve_scales(grid, schema, family)
    base_runs, cuboid_runs = group_rows(grid, family, rows, tracer=tracer)
    with maybe_span(tracer, "build.materialize"):
        base_table = BaseBlockTable.from_runs(pool, grid, base_runs)
        cuboids = {
            frozenset(dims): RankingCuboid.from_runs(
                pool, dims, schema.cardinalities(dims), grid, runs,
                scale_override=scale, epoch=epoch,
            )
            for (dims, scale), runs in zip(family, cuboid_runs)
        }
    return base_table, cuboids


def resolve_scales(
    grid: BlockGrid,
    schema,
    family: Sequence[tuple[tuple[str, ...], int | None]],
) -> list[tuple[tuple[str, ...], int]]:
    """``family`` with each ``None`` scale factor replaced by the one
    computed from the dimensions' cardinalities (Section 3.1.3)."""
    return [
        (
            dims,
            scale_factor(schema.cardinalities(dims), grid.num_dims)
            if scale is None
            else scale,
        )
        for dims, scale in family
    ]


Run = tuple[tuple, bytes, int]


def group_rows(
    grid: BlockGrid,
    family: Sequence[tuple[tuple[str, ...], int]],
    rows: ScannedRows,
    *,
    tracer=None,
) -> tuple[list[Run], Iterator[list[Run]]]:
    """The one grouping of rows into store records (Section 3.1.3): each
    row's bid and, per scale factor, pid, then each store's records as
    key-ordered runs (:func:`encode_runs`), each key's in ``rows`` order,
    which is all a store's page image depends on.  Writes no page.

    Returns ``(base_runs, cuboid_runs)``: the base table's runs, keyed
    ``(bid,)`` over ``(tid, ranking values...)``, and an iterator over
    ``family`` of each cuboid's runs, keyed ``(selection values...,
    pid)`` over ``(tid, bid)``.  It encodes a cuboid when it reaches it,
    so a caller that writes each in turn holds one cuboid's runs at a
    time; every value is range-checked before this returns.
    """
    with maybe_span(tracer, "build.group"):
        bids = grid.locate_many(rows.points)
        base_runs = encode_runs(
            [bids], [rows.tids, *rows.points.T], "q" + "d" * grid.num_dims
        )
        _check_fits(rows.sel_rows, "i")
        # a row's pid depends on its bid and the scale factor only
        scales = {scale for _dims, scale in family}
        pids = {s: PseudoBlockMap(grid, s).pid_array[bids] for s in scales}
        columns = dict(zip(rows.selection_dims, rows.sel_rows.T))

    def cuboid_runs():
        for dims, scale in family:
            with maybe_span(tracer, "build.group"):
                keys = [columns[d] for d in dims] + [pids[scale]]
                runs = encode_runs(keys, [rows.tids, bids], "qi")
            yield runs

    return base_runs, cuboid_runs()


def encode_runs(
    keys: Sequence[np.ndarray], fields: Sequence[np.ndarray], fmt: str
) -> list[Run]:
    """Records as ``(key, record bytes, count)`` runs, one per distinct
    key, in ascending key order: ``keys`` are the key's int columns,
    ``fields`` the records' columns, one per character of ``fmt``.  The
    runs equal ``struct.pack("<" + fmt)`` over a key-sorted dict of
    record lists (one stable ``np.lexsort``, one ``tobytes``; DESIGN
    §11), keys and counts as Python ints.  A key outside int32 or an
    integer field outside its format, which a NumPy assignment would
    wrap, raises :class:`CubeError` before anything is packed.
    """
    for column, char in [*zip(keys, itertools.repeat("i")), *zip(fields, fmt)]:
        if char in "qi":
            _check_fits(column, char)
    order = np.lexsort(keys[::-1])
    records = np.empty(len(order), RecordCodec(fmt).dtype)
    for name, column in zip(records.dtype.names, fields):
        records[name] = column[order]
    data, size = memoryview(records.tobytes()), records.itemsize
    ordered = np.array([column[order] for column in keys])
    change = np.ones(len(order), bool)
    change[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    starts = np.flatnonzero(change)
    bounds = [*starts.tolist(), len(order)]
    return [
        (tuple(key), data[start * size:end * size], end - start)
        for key, start, end in zip(ordered[:, starts].T.tolist(), bounds, bounds[1:])
    ]


def _check_fits(values: np.ndarray, char: str) -> None:
    """Raise :class:`CubeError` unless every one of ``values`` fits the
    integer struct format ``char``."""
    if values.size:
        limits = np.iinfo(np.dtype("<" + char))
        low, high = int(values.min()), int(values.max())
        if low < limits.min or high > limits.max:
            raise CubeError(f"values [{low}, {high}] do not fit {limits.dtype}")


def _minimum_cover(candidates: list[frozenset], wanted: frozenset) -> list[frozenset]:
    """Smallest sub-family of ``candidates`` whose union is ``wanted``.

    Exhaustive for small candidate families (the common case: one fragment
    cuboid per query dimension), greedy set cover otherwise.
    """
    if len(candidates) <= 12:
        for size in range(1, len(candidates) + 1):
            for combo in itertools.combinations(candidates, size):
                if frozenset().union(*combo) == wanted:
                    return list(combo)
    # greedy fallback
    remaining = set(wanted)
    chosen: list[frozenset] = []
    pool = list(candidates)
    while remaining:
        best = max(pool, key=lambda key: len(key & remaining))
        if not best & remaining:
            raise CubeError(f"cannot cover dimensions {sorted(remaining)}")
        chosen.append(best)
        remaining -= best
        pool.remove(best)
    return chosen
