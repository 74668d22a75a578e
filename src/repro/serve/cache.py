"""Cross-query caches for the serving layer.

These cache families let a query *stream* amortize work the paper's
executor only amortizes *within* one query:

* :class:`PseudoBlockCache` — a memory-bounded, thread-safe LRU over
  decoded pseudo blocks.  Keys are ``(cuboid_name, cell_values, pid)``
  and values are the decoded ``{bid: [tid, ...]}`` maps, so a repeated
  selection skips both the page I/O *and* the decode work of
  ``get_pseudo_block``.  Invalidation hooks are wired to the cube's
  append/refresh paths (see :meth:`repro.core.cube.RankingCube
  .add_invalidation_listener`); invalidation is conservative — any
  maintenance event drops every entry of the affected cuboids.
* :class:`BlockCache` — the same idea for the executor's *evaluate*
  step: one base block's decoded ``(tid, values)`` records per key
  ``(base table uid, bid)``.  A table generation is never mutated and
  its ``uid`` is never reused (not even by an unpickled copy), so entries
  of a compacted-away generation miss by construction and age out
  under the LRU bound — this cache needs no invalidation listener.
* :class:`BoundMemo` — memoizes the convex lower bound ``f(bid)`` per
  ``(ranking-function signature, grid signature)``.  The bound depends
  only on the function and the grid geometry, never on the data, so a
  query stream that reuses popular ranking functions computes each block
  bound exactly once.  Functions without a value-based signature (opaque
  callables) are simply not memoized.

All three are safe under concurrent readers/writers: every public
method holds the cache's lock for its full (short, pure-Python) critical
section.  Entries are only inserted after a *successful* decode, so a
query aborted mid-flight by a storage fault can never poison them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..obs.metrics import MetricsRegistry, RegistryStatsView

#: Key of one cached pseudo block: (cuboid name, cell values, pid).
PseudoKey = tuple[str, tuple[int, ...], int]

#: Key of one cached base block: (base table uid, bid).
BlockKey = tuple[int, int]


class CacheStats(RegistryStatsView):
    """Hit/miss/eviction counters for one shared cache.

    A view over ``serve.cache.*`` registry series, labeled with the cache
    instance's name — so a service's pseudo-block cache and bound memo
    publish to the same spine as the device and buffer pool under it, and
    the invariant *shared-cache misses == cold fetches* is checkable from
    one registry snapshot.
    """

    _PREFIX = "serve.cache."
    _FIELDS = (
        "hits",
        "misses",
        "insertions",
        "evictions",
        "invalidations",
        "oversized_rejections",
    )

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict[str, int]:
        """A detached plain-value copy of the current counters."""
        return self.as_dict()


class PseudoBlockCache:
    """Memory-bounded LRU of decoded pseudo blocks, shared across queries.

    Parameters
    ----------
    capacity_entries:
        Maximum number of resident ``{bid: [tid, ...]}`` maps.
    capacity_tids:
        Optional additional bound on the total number of cached tids
        (the dominant memory cost); eviction runs until both bounds hold.
        ``None`` disables the tid bound.
    registry:
        Metrics registry the cache's counters attach to (a private one
        when omitted).  The serving layer passes the storage tree's
        registry so cache accounting shares the spine.
    """

    def __init__(
        self,
        capacity_entries: int = 1024,
        capacity_tids: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if capacity_entries < 1:
            raise ValueError("capacity_entries must be >= 1")
        if capacity_tids is not None and capacity_tids < 1:
            raise ValueError("capacity_tids must be >= 1 (or None)")
        self.capacity_entries = capacity_entries
        self.capacity_tids = capacity_tids
        self.stats = CacheStats(registry, cache="pseudo_block")
        self._lock = threading.Lock()
        self._entries: OrderedDict[PseudoKey, dict[int, list[int]]] = OrderedDict()
        self._resident_tids = 0

    # ------------------------------------------------------------------
    def get(self, key: PseudoKey) -> dict[int, list[int]] | None:
        """The decoded map for ``key``, or ``None`` on a miss.

        Callers must treat the returned map as immutable — it is shared
        with every other query that hits the same key.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.inc("misses")
                return None
            self.stats.inc("hits")
            self._entries.move_to_end(key)
            return entry

    def put(self, key: PseudoKey, by_bid: dict[int, list[int]]) -> None:
        """Insert a fully decoded pseudo block (idempotent per key).

        An entry larger than ``capacity_tids`` on its own is rejected up
        front (counted in ``oversized_rejections``): admitting it would
        first evict every other resident entry and then leave the cache
        over its memory bound for as long as the entry stays hot.  Callers
        keep their reference to the decoded map, so a rejection costs
        nothing beyond the lost reuse.
        """
        entry_tids = sum(len(tids) for tids in by_bid.values())
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return
            if self.capacity_tids is not None and entry_tids > self.capacity_tids:
                self.stats.inc("oversized_rejections")
                return
            self._entries[key] = by_bid
            self._resident_tids += entry_tids
            self.stats.inc("insertions")
            self._evict_locked()
            assert (
                self.capacity_tids is None
                or self._resident_tids <= self.capacity_tids
            ), "pseudo-block cache exceeded its tid memory bound after insert"

    def _evict_locked(self) -> None:
        while len(self._entries) > self.capacity_entries or (
            self.capacity_tids is not None
            and self._resident_tids > self.capacity_tids
        ):
            _key, victim = self._entries.popitem(last=False)
            self._resident_tids -= sum(len(tids) for tids in victim.values())
            self.stats.inc("evictions")

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_cuboids(self, cuboid_names) -> int:
        """Drop every entry belonging to the named cuboids.

        This is the listener the cube's maintenance paths call (see
        ``RankingCube.add_invalidation_listener``); returns the number of
        entries dropped.
        """
        names = set(cuboid_names)
        with self._lock:
            doomed = [key for key in self._entries if key[0] in names]
            for key in doomed:
                victim = self._entries.pop(key)
                self._resident_tids -= sum(len(t) for t in victim.values())
            self.stats.inc("invalidations", len(doomed))
            return len(doomed)

    def clear(self) -> None:
        """Drop everything (counts as invalidation, not eviction)."""
        with self._lock:
            self.stats.inc("invalidations", len(self._entries))
            self._entries.clear()
            self._resident_tids = 0

    # ------------------------------------------------------------------
    @property
    def resident_entries(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def resident_tids(self) -> int:
        with self._lock:
            return self._resident_tids

    def __contains__(self, key: PseudoKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        return self.resident_entries


class BlockCache:
    """Memory-bounded LRU of decoded base blocks, shared across queries.

    The evaluate step decodes each base block it scores; this cache
    shares those decodes across a query stream the way
    :class:`PseudoBlockCache` shares pseudo-block decodes, so a warm
    stream scores a block it has seen before without a directory walk,
    a buffer-pool get or a decode.  Keys are ``(table uid, bid)`` and
    values the block's ``(tid, values)`` records.  The table's ``uid``
    is never reused, so entries decoded from a compacted-away generation
    can never satisfy a lookup against its replacement; they simply age
    out.

    A hit does **not** change a query's logical counters
    (``blocks_accessed`` etc. still advance): the executor's
    byte-identical-answers contract counts block *visits*, and the cache
    only removes the physical fetch + decode behind one.

    Parameters
    ----------
    capacity_blocks:
        Maximum number of resident blocks.
    capacity_tuples:
        Optional additional bound on total cached tuples (the dominant
        memory cost); eviction runs until both bounds hold.
    registry:
        Metrics registry for the ``serve.cache.*`` counters (labeled
        ``cache="base_block"``).
    """

    def __init__(
        self,
        capacity_blocks: int = 4096,
        capacity_tuples: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be >= 1")
        if capacity_tuples is not None and capacity_tuples < 1:
            raise ValueError("capacity_tuples must be >= 1 (or None)")
        self.capacity_blocks = capacity_blocks
        self.capacity_tuples = capacity_tuples
        self.stats = CacheStats(registry, cache="base_block")
        self._lock = threading.Lock()
        # (table uid, bid) -> decoded block
        self._entries: OrderedDict[BlockKey, object] = OrderedDict()
        self._resident_tuples = 0

    # ------------------------------------------------------------------
    def get(self, key: BlockKey):
        """The decoded block for ``(table uid, bid)``, or ``None``.

        Returned blocks are shared across queries and must be treated as
        immutable.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.inc("misses")
                return None
            self.stats.inc("hits")
            self._entries.move_to_end(key)
            return entry

    def put(self, key: BlockKey, block) -> None:
        """Insert a fully decoded block (idempotent per key)."""
        size = len(block)
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return
            if self.capacity_tuples is not None and size > self.capacity_tuples:
                self.stats.inc("oversized_rejections")
                return
            self._entries[key] = block
            self._resident_tuples += size
            self.stats.inc("insertions")
            while len(self._entries) > self.capacity_blocks or (
                self.capacity_tuples is not None
                and self._resident_tuples > self.capacity_tuples
            ):
                _key, victim = self._entries.popitem(last=False)
                self._resident_tuples -= len(victim)
                self.stats.inc("evictions")

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Drop everything (counts as invalidation); returns entries dropped.

        The uid-keyed design makes this optional for correctness; the
        serving layer calls it to start cold (``cold_cache``) or after
        an external rebuild, never on routine maintenance.
        """
        with self._lock:
            dropped = len(self._entries)
            self.stats.inc("invalidations", dropped)
            self._entries.clear()
            self._resident_tuples = 0
            return dropped

    @property
    def resident_tuples(self) -> int:
        with self._lock:
            return self._resident_tuples

    def __contains__(self, key: BlockKey) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class BoundMemo:
    """Memo of block lower bounds ``f(bid)`` keyed by (function, grid).

    The memo is safe to share across every query and every cube: bounds
    depend only on the ranking-function values and the grid boundaries,
    both captured in the key.  Ranking functions advertise a value-based
    signature via :meth:`repro.ranking.functions.RankingFunction.cache_key`;
    functions that cannot (opaque convex callables) return ``None`` and
    are not memoized — ``lookup`` reports a pass-through miss and ``store``
    drops the value.

    Entries never go stale (neither operand is mutable), so there is no
    invalidation path; ``clear`` exists for memory pressure only.  The memo
    is bounded by ``capacity`` *(function, grid)* groups, evicted LRU.
    """

    def __init__(self, capacity: int = 64, registry: MetricsRegistry | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.stats = CacheStats(registry, cache="bound_memo")
        self._lock = threading.Lock()
        # (fn_key, grid_key) -> {bid: bound}
        self._groups: OrderedDict[tuple, dict[int, float]] = OrderedDict()

    # ------------------------------------------------------------------
    @staticmethod
    def grid_key(grid) -> tuple:
        """Value-based identity of a grid's geometry."""
        return (grid.dims, grid.boundaries)

    def group(self, fn, grid) -> dict[int, float] | None:
        """The mutable ``{bid: bound}`` memo for one (function, grid).

        Returns ``None`` when the function has no value-based signature.
        The returned dict is shared: the executor reads and writes it
        directly, which is safe because CPython dict get/set are atomic
        and bounds are deterministic — concurrent writers store the same
        value.
        """
        fn_key = fn.cache_key()
        if fn_key is None:
            return None
        key = (fn_key, self.grid_key(grid))
        with self._lock:
            memo = self._groups.get(key)
            if memo is None:
                memo = {}
                self._groups[key] = memo
                while len(self._groups) > self.capacity:
                    self._groups.popitem(last=False)
                    self.stats.inc("evictions")
            else:
                self._groups.move_to_end(key)
            return memo

    def lookup(self, memo: dict[int, float] | None, bid: int) -> float | None:
        """Memoized bound for ``bid``, counting hit/miss."""
        if memo is None:
            self.stats.inc("misses")
            return None
        bound = memo.get(bid)
        if bound is None:
            self.stats.inc("misses")
        else:
            self.stats.inc("hits")
        return bound

    def store(self, memo: dict[int, float] | None, bid: int, bound: float) -> None:
        if memo is not None:
            memo[bid] = bound
            self.stats.inc("insertions")

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self.stats.inc("invalidations", len(self._groups))
            self._groups.clear()

    @property
    def resident_groups(self) -> int:
        with self._lock:
            return len(self._groups)
