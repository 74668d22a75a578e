"""Process-mode sharded serving: identity, observability, admission.

The behaviours both serving modes share are one suite
(``test_service.ShardedServiceSuite``), run here in process mode; the
deep worker-kill matrix lives in ``tests/faults/test_worker_kill.py``.
What remains below is process-only: identity against thread mode,
worker-side counters, the front-end policies (coalescing, admission
control) and the spill-directory / worker lifecycle.
"""

import random
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.persist import save_sharded_workspace
from repro.ranking import LinearFunction
from repro.relational import (
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)
from repro.serve import (
    ServiceClosedError,
    ServiceOverloadedError,
    ShardedQueryService,
)
from repro.shard import build_sharded

from .test_service import ShardedServiceSuite

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)


def make_rows(count=150, seed=11):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


def signature(result):
    return [(row.tid, round(row.score, 9)) for row in result.rows]


@pytest.fixture(scope="module")
def cube():
    return build_sharded(SCHEMA, make_rows(), 3, block_size=8)


@pytest.fixture(scope="module")
def proc_service(cube):
    with ShardedQueryService(cube, workers=2, mode="process") as service:
        yield service


QUERIES = [
    query(k=4, a1=1),
    query(k=7),
    query(k=3, a2=2),
    query(k=1, a1=0, a2=3),
    TopKQuery(5, {}, LinearFunction(["n2"], [1.0])),
    TopKQuery(2, {"a1": 2}, LinearFunction(["n1", "n2"], [0.2, 1.0]),
              projection=("a2",)),
]


class TestProcessModeService(ShardedServiceSuite):
    """The shared service suite, served by worker processes."""

    mode = "process"
    #: two-step trips capped at the next shard's bound read what
    #: one-step trips read: thread mode's steps and I/O, in fewer rounds
    pinned = {
        "rounds": [9, 9, 23, 10],
        "steps": [9, 13, 35, 19],
        "shard_io": [
            {0: (3, 3, 27, 2), 1: (2, 2, 13, 2), 2: (2, 2, 14, 2), 3: (2, 2, 17, 2)},
            {0: (4, 4, 13, 2), 1: (3, 3, 4, 2), 2: (3, 3, 7, 2), 3: (3, 3, 8, 2)},
            {0: (10, 10, 13, 2), 1: (6, 6, 10, 2), 2: (9, 9, 15, 2), 3: (10, 10, 16, 2)},
            {0: (4, 4, 2, 2), 1: (4, 4, 3, 2), 2: (7, 7, 6, 2), 3: (4, 4, 2, 2)},
        ],
        "steps_series": [21, 15, 21, 19],
    }
    deployment_pinned = {
        2: {"blocks": 460, "candidates": 460, "naive_candidates": 654,
            "tuples": 548, "device_reads": 481, "hot_shard_reads": 259,
            "merge_rounds": 278, "shard_steps": 460},
        4: {"blocks": 587, "candidates": 587, "naive_candidates": 1084,
            "tuples": 528, "device_reads": 678, "hot_shard_reads": 199,
            "merge_rounds": 468, "shard_steps": 587},
    }


class TestProcessModeIdentity:
    def test_answers_match_thread_mode_exactly(self, cube, proc_service):
        with ShardedQueryService(cube, workers=2) as threaded:
            expected = [threaded.submit(q).result() for q in QUERIES]
        got = [proc_service.submit(q).result() for q in QUERIES]
        for want, have in zip(expected, got):
            assert signature(want) == signature(have)
            assert [r.values for r in want.rows] == [r.values for r in have.rows]

    def test_worker_counters_aggregate_with_shard_label(self, cube):
        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=1, mode="process", registry=registry
        ) as service:
            service.submit(query(k=4)).result()
        snap = registry.snapshot()
        assert snap["shard.service.queries"] == 1
        # worker-side storage/cache series land here with a shard label
        merged = [k for k in snap if "shard=" in k and k.startswith("serve.cache.")]
        assert merged, sorted(snap)


class TestFrontEndPolicies:
    def test_identical_inflight_queries_coalesce(self, cube):
        release = threading.Event()
        entered = threading.Event()

        def hook(point, shard_id):
            if point == "scatter":
                entered.set()
                release.wait(timeout=60)

        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=2, mode="process", registry=registry, fault_hook=hook
        ) as service:
            first = service.submit(query(k=4, a1=1))
            assert entered.wait(timeout=60)
            second = service.submit(query(k=4, a1=1))
            assert second is first
            release.set()
            assert signature(first.result()) == signature(second.result())
        assert registry.snapshot()["shard.service.coalesced"] == 1
        assert registry.snapshot()["shard.service.queries"] == 1

    def test_admission_control_sheds_excess_load(self, cube):
        release = threading.Event()
        entered = threading.Event()

        def hook(point, shard_id):
            if point == "scatter":
                entered.set()
                release.wait(timeout=60)

        registry = MetricsRegistry()
        with ShardedQueryService(
            cube, workers=2, mode="process", registry=registry,
            max_inflight=1, fault_hook=hook,
        ) as service:
            first = service.submit(query(k=4, a1=1))
            assert entered.wait(timeout=60)
            with pytest.raises(ServiceOverloadedError):
                service.submit(query(k=2, a2=0))  # distinct: not coalesced
            release.set()
            first.result()
            # capacity freed: the same query is admitted now
            service.submit(query(k=2, a2=0)).result()
        assert registry.snapshot()["shard.service.overloaded"] == 1

    def test_coalescing_can_be_disabled(self, cube):
        with ShardedQueryService(
            cube, workers=2, mode="process", coalesce=False
        ) as service:
            first = service.submit(query(k=3))
            second = service.submit(query(k=3))
            assert second is not first
            assert signature(first.result()) == signature(second.result())


class TestLifecycle:
    def test_reuses_pinned_spill_directory(self, cube, tmp_path):
        manifest = save_sharded_workspace(cube, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        with ShardedQueryService(
            cube, workers=1, mode="process", spill_dir=str(tmp_path)
        ) as service:
            result = service.submit(query(k=3)).result()
        assert len(result.rows) == 3
        # a caller-owned directory survives close()
        assert (tmp_path / "manifest.json").exists()
        assert manifest["shards"]

    def test_close_terminates_workers_and_rejects_queries(self, cube):
        service = ShardedQueryService(cube, workers=1, mode="process")
        pool = service._transport
        procs = [h.process for h in pool._handles.values()]
        assert all(p.is_alive() for p in procs)
        service.close()
        for proc in procs:
            proc.join(timeout=10)
            assert not proc.is_alive()
        with pytest.raises(ServiceClosedError):
            service.submit(query(k=1))

    def test_cold_cache_round_trips_to_workers(self, proc_service):
        proc_service.cold_cache()
        result = proc_service.submit(query(k=4, a1=1)).result()
        # a cooled worker re-reads from its device: physical reads visible
        assert sum(io.device_reads for io in result.shard_io.values()) > 0
