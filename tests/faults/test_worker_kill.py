"""Kill matrix for the process-per-shard serving tier.

SIGKILLs a shard worker at seeded protocol fault points and asserts the
tier's failure contract: **zero wrong answers** (every result actually
returned is byte-identical to the thread-mode answer), failures surface
as *typed* aborts only, and respawn from the SHA-256-pinned manifest is
bounded.

The fault points are the serving layer's ``fault_hook(point, shard_id)``
seams:

* ``scatter``      — before a shard's session opens.  The pool notices
                     the corpse and respawns *before* the query touches
                     it, so the query must still succeed.
* ``merge_round``  — mid-merge, after sessions are open.  The query must
                     degrade to ``QueryAbortedError`` (typed, partials
                     attached); the next query heals via lazy respawn.
* ``finish``       — during result collection: same abort contract.
* ``respawn``      — the fresh worker is killed as soon as the pool
                     spawns it, proving the retry budget is bounded.
"""

import multiprocessing
import random
import threading
import time

import pytest

from repro.core import QueryAbortedError
from repro.obs.metrics import MetricsRegistry
from repro.ranking import LinearFunction
from repro.relational import Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import ShardedQueryService
from repro.serve.procpool import ProcPoolError
from repro.shard import build_sharded

pytestmark = [pytest.mark.faults, pytest.mark.serve, pytest.mark.timeout(300)]

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)

VICTIM = 1  # shard whose worker the matrix murders


def make_rows(count=150, seed=23):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


def signature(result):
    return [(row.tid, round(row.score, 9)) for row in result.rows]


def sigkill_worker(shard_id: int) -> bool:
    """SIGKILL the live worker process serving ``shard_id`` (by name)."""
    victim_name = f"repro-shard-worker-{shard_id}"
    killed = False
    for proc in multiprocessing.active_children():
        if proc.name == victim_name and proc.is_alive():
            proc.kill()
            proc.join(timeout=10)
            killed = True
    return killed


class KillOnce:
    """Fault hook that SIGKILLs the victim the first time a point fires."""

    def __init__(self, point: str, shard_id: int = VICTIM):
        self.point = point
        self.shard_id = shard_id
        self.fired = 0
        self._lock = threading.Lock()

    def __call__(self, point: str, shard_id: int) -> None:
        if point != self.point or shard_id != self.shard_id:
            return
        with self._lock:
            if self.fired:
                return
            self.fired += 1
        assert sigkill_worker(self.shard_id)


@pytest.fixture(scope="module")
def cube():
    return build_sharded(SCHEMA, make_rows(), 3, block_size=8)


@pytest.fixture(scope="module")
def expected(cube):
    """Thread-mode ground truth, keyed by k (the identity oracle)."""
    with ShardedQueryService(cube, workers=1) as threaded:
        return {
            k: signature(threaded.submit(query(k=k)).result())
            for k in (5, 20)
        }


class TestKillMatrix:
    def test_kill_mid_scatter_recovers_transparently(self, cube, expected):
        hook = KillOnce("scatter")
        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=1, mode="process", registry=registry, fault_hook=hook
        ) as service:
            result = service.submit(query(k=5)).result()
            assert signature(result) == expected[5]  # zero wrong answers
        assert hook.fired == 1
        snap = registry.snapshot()
        assert snap[f"shard.pool.respawns{{shard={VICTIM}}}"] == 1
        assert snap.get("shard.service.aborted", 0) == 0

    def test_kill_mid_merge_aborts_typed_then_heals(self, cube, expected):
        hook = KillOnce("merge_round")
        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=1, mode="process", registry=registry,
            fault_hook=hook, step_batch=1,  # force multi-round merges
        ) as service:
            # k=20 over 150 rows keeps every shard on the frontier for
            # several single-step rounds, so the victim is stepped again
            # after its session opened — the mid-merge window.
            future = service.submit(query(k=20))
            with pytest.raises(QueryAbortedError) as excinfo:
                future.result()
            err = excinfo.value
            assert isinstance(err.partial_rows, list)
            # no partial row may contradict the true answer's scores
            true_scores = dict(expected[20])
            for row in err.partial_rows:
                if row.tid in true_scores:
                    assert round(row.score, 9) == true_scores[row.tid]
            # lazy respawn: the very next query is answered correctly
            healed = service.submit(query(k=20)).result()
            assert signature(healed) == expected[20]
        assert hook.fired == 1
        assert registry.snapshot()["shard.service.aborted"] == 1

    def test_kill_mid_finish_aborts_typed_then_heals(self, cube, expected):
        hook = KillOnce("finish")
        with ShardedQueryService(
            cube, workers=1, mode="process", fault_hook=hook
        ) as service:
            with pytest.raises(QueryAbortedError):
                service.submit(query(k=5)).result()
            healed = service.submit(query(k=5)).result()
            assert signature(healed) == expected[5]
        assert hook.fired == 1

    def test_kill_mid_respawn_is_bounded(self, cube):
        """A hook that murders every fresh worker exhausts the retry
        budget and surfaces a typed pool error — never a hang."""
        attempts = []
        armed = threading.Event()
        armed.set()

        def hook(point, shard_id):
            if point == "respawn" and shard_id == VICTIM and armed.is_set():
                attempts.append(time.monotonic())
                sigkill_worker(shard_id)

        with ShardedQueryService(
            cube, workers=1, mode="process", fault_hook=hook
        ) as service:
            pool = service._transport
            sigkill_worker(VICTIM)  # make the victim need a respawn
            with pytest.raises(ProcPoolError, match="could not be respawned"):
                pool.respawn(VICTIM)
            assert len(attempts) == pool.respawn_retries + 1
            # disarm the hook: the deployment heals on the next query
            armed.clear()
            result = service.submit(query(k=3, a1=0)).result()
            assert sorted(result.shard_io) == [0, 1, 2]
            assert len(result.rows) == 3
