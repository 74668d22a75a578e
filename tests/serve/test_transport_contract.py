"""One endpoint contract, two transports.

``ShardedQueryService`` drives every shard through the calls of
:class:`repro.serve.endpoint.ShardEndpoint` — directly in thread mode,
framed over a worker pipe in process mode.  This suite runs the *same*
scripted sessions against an in-process endpoint and a worker handle
over the same shard and requires the same answer from both, call for
call and field for field: the front end is written once on the
strength of exactly this.
"""

import random

import pytest

from repro.obs.export import canonical_span
from repro.persist import save_sharded_workspace
from repro.ranking import LinearFunction
from repro.relational import Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import LocalShardPool, ProcessShardPool, WireError
from repro.shard import build_sharded

pytestmark = [pytest.mark.serve, pytest.mark.timeout(120)]

SCHEMA = Schema.of(
    [
        selection_attr("a1", 3),
        selection_attr("a2", 4),
        ranking_attr("n1"),
        ranking_attr("n2"),
    ]
)
SHARD = 1
#: a global k-th score that only ever falls, as a merge's does
FALLING_KTH = (None, 1.2, 0.9, 0.9, 0.6, 0.4, 0.2)


def make_rows(count, seed):
    rng = random.Random(seed)
    return [
        (rng.randrange(3), rng.randrange(4), rng.random(), rng.random())
        for _ in range(count)
    ]


def query(k=5, **selections):
    return TopKQuery(k, selections, LinearFunction(["n1", "n2"], [1.0, 0.5]))


@pytest.fixture(scope="module")
def endpoints(tmp_path_factory):
    """``(in-process endpoint, worker handle)`` over one shard's state,
    delta rows included."""
    cube = build_sharded(SCHEMA, make_rows(240, seed=31), 2, block_size=8)
    cube.append_rows(make_rows(12, seed=32))  # unmerged delta on both shards
    directory = tmp_path_factory.mktemp("contract-spill")
    manifest = save_sharded_workspace(cube, directory)
    local = LocalShardPool(cube)
    remote = ProcessShardPool(directory, manifest)
    try:
        yield local.handle(SHARD), remote.handle(SHARD)
    finally:
        remote.close()
        local.close()


def both(endpoints, call):
    """Run one scripted call on each transport; the two answers."""
    return [call(endpoint) for endpoint in endpoints]


def test_topk_session_agrees_step_for_step(endpoints):
    for endpoint in endpoints:
        endpoint.cold_cache()
    q = query(k=6, a1=1)
    opened = both(endpoints, lambda e: e.open(7, q, FALLING_KTH[0], 2, False))
    assert opened[0] == opened[1]
    scored, best_unseen, exhausted, steps, delta_rows = opened[0]
    assert steps == 2 and not exhausted
    assert delta_rows, "the script must cover the unconditional delta merge"
    assert both(endpoints, lambda e: e.open_sessions) == [1, 1]
    for kth in FALLING_KTH[1:]:
        stepped = both(endpoints, lambda e: e.step(7, kth, 3))
        assert stepped[0] == stepped[1]
        assert stepped[0][4] == []  # delta rows ride on the open only
    local, remote = both(endpoints, lambda e: e.close(7))
    # (blocks, candidates, tuples, device reads) agree; the counter
    # deltas are the one field that differs by design — a worker ships
    # its registry's delta, an in-process registry is read in place
    assert local[:4] == remote[:4]
    assert local[0] > 0 and local[3] > 0
    assert local[4] == [] and remote[4]
    assert both(endpoints, lambda e: e.open_sessions) == [0, 0]


def test_open_without_steps_returns_only_delta_rows(endpoints):
    q = query(k=3)
    opened = both(endpoints, lambda e: e.open(8, q, None, 0, False))
    assert opened[0] == opened[1]
    scored, _best_unseen, exhausted, steps, delta_rows = opened[0]
    assert (scored, steps, exhausted) == ([], 0, False) and delta_rows
    closed = both(endpoints, lambda e: e.close(8))
    assert closed[0][:3] == closed[1][:3]


def test_enumeration_session_agrees_row_for_row(endpoints):
    q = query(k=4, a2=2)
    first = both(endpoints, lambda e: e.open_enum(9, q, 5, False))
    assert first[0] == first[1]
    assert len(first[0][0]) == 5
    drained = list(first[0][0])
    while True:
        rows = both(endpoints, lambda e: e.next_rows(9, 7))
        assert rows[0] == rows[1]
        drained += rows[0][0]
        if rows[0][1]:
            break
    assert drained == sorted(drained)  # certified (score, tid) order
    assert len(drained) > 12
    closed = both(endpoints, lambda e: e.close(9))
    assert closed[0][:3] == closed[1][:3]


def test_reverse_count_agrees(endpoints):
    fn = query().ranking
    steep = LinearFunction(["n1", "n2"], [0.2, 1.0])
    for t_score, tie_tid in ((0.35, 40), (0.8, 0), (0.0, 10**6)):
        members = [(fn, t_score, 9), (steep, t_score, 3)]
        counted = both(
            endpoints, lambda e: e.reverse_count({"a1": 0}, members, tie_tid)
        )
        assert counted[0][:4] == counted[1][:4]
    assert counted[0][0] == [0, 0]  # nothing scores below zero


def test_traced_sessions_produce_the_same_span_trees(endpoints):
    q = query(k=5)
    for endpoint in endpoints:
        endpoint.cold_cache()
    both(endpoints, lambda e: e.open(10, q, None, 2, True))
    both(endpoints, lambda e: e.step(10, 1.0, 2))
    spans = [
        [canonical_span(span) for span in closed[5]]
        for closed in both(endpoints, lambda e: e.close(10))
    ]
    assert spans[0] == spans[1]
    assert [s["name"] for s in spans[0]] == ["shard_batch", "shard_batch"]


def test_cold_cache_sends_both_back_to_the_device(endpoints):
    q = query(k=5, a1=2)

    def reads(endpoint, request_id):
        endpoint.open(request_id, q, None, 4, False)
        return endpoint.close(request_id)[3]

    both(endpoints, lambda e: reads(e, 11))  # warm
    assert both(endpoints, lambda e: e.cold_cache()) == [None, None]
    cold = both(endpoints, lambda e: reads(e, 12))
    assert cold[0] == cold[1] > 0


@pytest.mark.parametrize(
    "call",
    [
        lambda e: e.close(999),
        lambda e: e.step(999, None, 1),
        lambda e: e.next_rows(999, 1),
    ],
    ids=["close", "step", "next_rows"],
)
def test_unknown_session_is_a_typed_error(endpoints, call):
    for endpoint in endpoints:
        with pytest.raises(WireError, match="no open session 999"):
            call(endpoint)
        assert endpoint.open_sessions == 0


def test_duplicate_session_id_is_rejected(endpoints):
    q = query(k=2)
    both(endpoints, lambda e: e.open(13, q, None, 1, False))
    for endpoint in endpoints:
        with pytest.raises(WireError, match="already open"):
            endpoint.open(13, q, None, 1, False)
    both(endpoints, lambda e: e.close(13))
