"""Sharded failover differential suite.

Replicated deployments (``replication_factor > 1``) must *degrade to a
warm replica*, not abort, when a shard primary dies mid-query — and the
answer served across the failover must be byte-identical to the
unsharded oracle's.  The seeded schedules in
``tests/faults/harness.py`` drive a primary death at every kill point
(mid-scatter, mid-merge, mid-any-k-enumeration, mid-reverse-count, and
during the promotion itself) in both serving modes and compare
``(tid, score)`` for ``(tid, score)``; the direct tests below pin the
integration seams the schedules abstract over: a real external SIGKILL,
the replication-off abort contract, the multi-failover budget, and the
``shard.replica.*`` counter accounting.
"""

import random

import pytest

from repro.core import QueryAbortedError
from repro.obs.metrics import MetricsRegistry
from repro.ranking import LinearFunction
from repro.relational import Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import ShardedQueryService
from repro.shard import build_sharded
from repro.storage import StorageError

from ..faults.harness import (
    FAILOVER_KILL_POINTS,
    assert_failover_consistent,
)

pytestmark = [pytest.mark.serve, pytest.mark.faults, pytest.mark.timeout(300)]

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)

THREAD_SEEDS = tuple(range(10))
PROCESS_SEEDS = (5, 29)


def make_rows(count=150, seed=23):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.7]))


def signature(result):
    return [(row.tid, round(row.score, 9)) for row in result.rows]


class TestFailoverKillMatrix:
    @pytest.mark.parametrize("kill_point", FAILOVER_KILL_POINTS)
    def test_thread_mode_survives_kill(self, kill_point):
        """Thread mode: every kill point, ten seeds, zero wrong answers."""
        outcomes = [
            assert_failover_consistent(seed, kill_point, mode="thread")
            for seed in THREAD_SEEDS
        ]
        assert all(o.consistent and o.killed for o in outcomes)
        if kill_point == "promote":
            assert all(o.kill_surfaced for o in outcomes)
        else:
            # thread-mode kills always heal at the query layer, so the
            # failover counter must match the induced kills exactly
            assert all(o.failovers == 1 for o in outcomes)

    @pytest.mark.parametrize("kill_point", FAILOVER_KILL_POINTS)
    def test_process_mode_survives_kill(self, kill_point):
        """Process mode: a real SIGKILL at every point, zero wrong answers."""
        outcomes = [
            assert_failover_consistent(seed, kill_point, mode="process")
            for seed in PROCESS_SEEDS
        ]
        assert all(o.consistent and o.killed for o in outcomes)
        # a kill can heal at the query layer (failover) or below it (the
        # pool warm-promotes on handle acquisition) — never both, and
        # always through exactly one promotion
        assert all(o.failovers in (0, 1) for o in outcomes)
        assert all(o.promotions == 1 for o in outcomes)


class TestThreadFailoverDirect:
    def _dead_primary_service(self, replication_factor, registry=None):
        """A 2-shard thread service whose shard-1 primary dies on demand.

        Returns ``(service, cube, arm)`` — call ``arm()`` after
        construction so the replicas cloned at startup stay healthy.
        """
        rows = make_rows()
        cube = build_sharded(
            SCHEMA, rows, 2, block_size=8, replication_factor=replication_factor
        )
        state = {"armed": False, "killed_primaries": []}

        def hook(point, shard_id):
            if not state["armed"] or shard_id != 1 or point != "merge_round":
                return
            current = cube.shards[1]
            if current in state["killed_primaries"]:
                return
            if len(state["killed_primaries"]) >= state["budget"]:
                return
            state["killed_primaries"].append(current)
            raise StorageError("injected device death (shard 1)")

        service = ShardedQueryService(
            cube,
            workers=2,
            mode="thread",
            registry=registry if registry is not None else MetricsRegistry(),
            fault_hook=hook,
        )

        def arm(budget=1):
            state["armed"] = True
            state["budget"] = budget

        return service, cube, arm, rows

    def test_replication_off_still_aborts(self):
        """factor=1 keeps the pre-replication contract: typed abort."""
        service, _cube, arm, _rows = self._dead_primary_service(1)
        with service:
            arm()
            with pytest.raises(QueryAbortedError):
                service.submit(query()).result()

    def test_failover_is_invisible_to_the_caller(self):
        """factor=2: the same kill now returns the exact oracle answer."""
        registry = MetricsRegistry()
        service, _cube, arm, rows = self._dead_primary_service(2, registry)
        with service:
            expected = signature(service.submit(query(k=8)).result())
            arm()
            survived = signature(service.submit(query(k=8)).result())
        assert survived == expected
        assert registry.value("shard.replica.failovers", shard="1") == 1
        assert registry.value("shard.replica.promotions", shard="1") == 1

    def test_double_failover_within_budget(self):
        """factor=3 survives the promoted replica dying too."""
        registry = MetricsRegistry()
        service, _cube, arm, rows = self._dead_primary_service(3, registry)
        with service:
            expected = signature(service.submit(query(k=8)).result())
            arm(budget=2)
            survived = signature(service.submit(query(k=8)).result())
        assert survived == expected
        assert registry.value("shard.replica.failovers", shard="1") == 2
        assert registry.value("shard.replica.promotions", shard="1") == 2

    def test_failovers_beyond_budget_abort(self):
        """factor=2 has one replica: a second primary death is fatal."""
        service, _cube, arm, _rows = self._dead_primary_service(2)
        with service:
            arm(budget=3)  # keep killing every promoted stack
            with pytest.raises(QueryAbortedError):
                service.submit(query(k=8)).result()


class TestProcessFailoverDirect:
    def test_external_sigkill_heals_warm(self):
        """A SIGKILL between queries promotes the standby, not a respawn."""
        rows = make_rows()
        cube = build_sharded(SCHEMA, rows, 2, block_size=8, replication_factor=2)
        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=2, mode="process", registry=registry,
            worker_timeout_s=30.0,
        ) as service:
            expected = signature(service.submit(query(k=6)).result())
            handle = service._transport._handles[0]
            handle.process.kill()
            handle.process.join(timeout=10)
            survived = signature(service.submit(query(k=6)).result())
        assert survived == expected
        assert registry.value("shard.replica.promotions", shard="0") == 1
        assert registry.total("shard.pool.respawns") == 0
