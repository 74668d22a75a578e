"""Concurrent query serving with cross-query caching.

The paper's executor amortizes I/O *within* one query (the retrieve-step
pseudo-block buffer); this package extends the amortization *across* a
query stream and makes the read path safe for concurrent workers:

* :class:`PseudoBlockCache` — shared LRU of decoded pseudo blocks,
* :class:`BlockCache` — shared LRU of decoded base blocks (the
  evaluate step of both engines: row records and columnar blocks,
  keyed apart by table uid, bid and form),
* :class:`BoundMemo` — shared memo of block lower bounds ``f(bid)``,
* :class:`QueryService` — worker-pool front end with ``submit`` /
  ``run_batch`` APIs and per-query latency/IO accounting,
* :class:`RoutedQueryService` — the same front end with
  :class:`~repro.route.AdaptiveRouter` as its door: per-query
  cost-routed path choice plus optional cuboid-advisor and
  drift-repartition maintenance (:mod:`repro.route`),
* :class:`ShardedQueryService` — the same front end over a horizontally
  sharded deployment (:mod:`repro.shard`), scatter-gathering per-shard
  progressive searches under a global early-termination bound.  One
  merge loop over per-shard endpoints (:mod:`repro.serve.endpoint`):
  called directly in this process, or — ``mode="process"`` — each in a
  long-lived worker process (:mod:`repro.serve.procpool`) speaking
  length-prefixed pickle frames (:mod:`repro.serve.wire`), with no GIL
  on the steps.

The ledger (``benchmarks/ledger/``) measures these layers end to end:
``serve_hot`` replays a skewed multi-tenant stream through
:class:`QueryService`, ``shard_thread`` / ``shard_process`` the sharded
merge in each mode.  The page-count gates live in the tests:
``tests/serve/test_service.py::TestServingGate`` (shared caches cut
device reads) and ``tests/shard/test_service.py``
(``test_hot_shard_and_early_stop_gates``).
"""

from .cache import BlockCache, BoundMemo, CacheStats, PseudoBlockCache
from .endpoint import LocalShardPool, ProcPoolError, ShardEndpoint
from .procpool import ProcessShardPool, ShardWorkerHandle
from .routed import RoutedQueryService
from .service import (
    QueryRecord,
    QueryService,
    ServiceClosedError,
    ServiceOverloadedError,
    ServiceStats,
)
from .sharded import (
    ShardedAnyKCursor,
    ShardedQueryRecord,
    ShardedQueryService,
    ShardedServiceStats,
)
from .wire import WireError, WorkerDiedError

__all__ = [
    "BlockCache",
    "BoundMemo",
    "CacheStats",
    "LocalShardPool",
    "ProcessShardPool",
    "ProcPoolError",
    "PseudoBlockCache",
    "QueryRecord",
    "QueryService",
    "RoutedQueryService",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceStats",
    "ShardEndpoint",
    "ShardWorkerHandle",
    "ShardedAnyKCursor",
    "ShardedQueryRecord",
    "ShardedQueryService",
    "ShardedServiceStats",
    "WireError",
    "WorkerDiedError",
]
