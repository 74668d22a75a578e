"""Sharded any-k enumeration and reverse top-k equal the oracle.

Scatter-gather changes I/O placement, never answers: a sharded any-k
cursor must stream the same certified global ``(score, tid)`` order as
the brute-force ranked oracle — in thread mode at 1/2/4 shards and in
process mode — and sharded reverse top-k must return the oracle's
qualifying set in both modes.  A SIGKILLed worker mid-enumeration must
surface as a typed :class:`QueryAbortedError` whose partial rows are a
correct prefix — never a silently wrong stream.
"""

import random

import pytest

from repro.core import QueryAbortedError, ReverseTopKQuery, simplex_grid_family
from repro.ranking import LinearFunction, LpDistance
from repro.relational import Schema, TopKQuery, ranking_attr, selection_attr
from repro.serve import ShardedQueryService
from repro.shard import build_sharded
from repro.workloads.oracle import brute_force_ranked, brute_force_reverse_topk

pytestmark = [
    pytest.mark.serve,
    pytest.mark.anyk,
    pytest.mark.reverse,
    pytest.mark.timeout(300),
]

CARDS = (3, 4)
SCHEMA = Schema.of(
    [selection_attr("a1", CARDS[0]), selection_attr("a2", CARDS[1])]
    + [ranking_attr("n1"), ranking_attr("n2")]
)
SEEDS = (3, 11, 29)
ROWS = {seed: None for seed in SEEDS}


def make_rows(seed, count=150):
    rng = random.Random(seed)
    return [
        (rng.randrange(CARDS[0]), rng.randrange(CARDS[1]), rng.random(), rng.random())
        for _ in range(count)
    ]


def make_queries(seed, count=6):
    rng = random.Random(seed + 1)
    queries = []
    for _ in range(count):
        selections = {}
        if rng.random() < 0.6:
            selections["a1"] = rng.randrange(CARDS[0])
        if rng.random() < 0.3:
            selections["a2"] = rng.randrange(CARDS[1])
        if rng.random() < 0.5:
            fn = LinearFunction(["n1", "n2"], [0.1 + rng.random(), 0.1 + rng.random()])
        else:
            fn = LpDistance(["n1", "n2"], [rng.random(), rng.random()])
        queries.append(TopKQuery(rng.randint(1, 8), selections, fn))
    return queries


def pairs(rows):
    return [(r.score, r.tid) for r in rows]


def drain(cursor, batch=6):
    out = []
    while not cursor.exhausted:
        out.extend(cursor.next_batch(batch))
    return out


def reverse_queries(seed, rows, count=4):
    rng = random.Random(seed + 2)
    family = simplex_grid_family(["n1", "n2"], 4)
    queries = []
    for _ in range(count):
        selections = {}
        if rng.random() < 0.5:
            selections["a1"] = rng.randrange(CARDS[0])
        queries.append(
            ReverseTopKQuery(rng.randrange(len(rows)), rng.randint(1, 6), selections, family)
        )
    return queries


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_shards", (1, 2, 4))
def test_thread_mode_enumeration_matches_oracle(seed, num_shards):
    rows = make_rows(seed)
    cube = build_sharded(SCHEMA, rows, num_shards, block_size=8)
    with ShardedQueryService(cube, workers=2) as service:
        for query in make_queries(seed):
            with service.open_search(query) as cursor:
                assert pairs(drain(cursor)) == pairs(
                    brute_force_ranked(SCHEMA, rows, query)
                )
        opened = service.registry.counter("shard.service.searches_opened")
        assert opened.value == len(make_queries(seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("num_shards", (1, 2, 4))
def test_thread_mode_reverse_matches_oracle(seed, num_shards):
    rows = make_rows(seed)
    cube = build_sharded(SCHEMA, rows, num_shards, block_size=8)
    with ShardedQueryService(cube, workers=2) as service:
        for rq in reverse_queries(seed, rows):
            result = service.submit_reverse(rq).result()
            assert result.qualifying == brute_force_reverse_topk(SCHEMA, rows, rq)


@pytest.fixture(scope="module")
def proc_env():
    rows = make_rows(7)
    cube = build_sharded(SCHEMA, rows, 3, block_size=8)
    with ShardedQueryService(
        cube, workers=3, mode="process", share_caches=False
    ) as service:
        yield rows, service


def test_process_mode_enumeration_matches_oracle(proc_env):
    rows, service = proc_env
    for query in make_queries(7):
        with service.open_search(query) as cursor:
            got = pairs(drain(cursor))
            assert got == pairs(brute_force_ranked(SCHEMA, rows, query))


def test_process_mode_projection_is_frontend_applied(proc_env):
    rows, service = proc_env
    query = TopKQuery(
        4, {"a1": 1}, LinearFunction(["n1", "n2"], [1.0, 0.5]), projection=("a2",)
    )
    with service.open_search(query) as cursor:
        streamed = drain(cursor)
    expected = brute_force_ranked(SCHEMA, rows, query)
    assert pairs(streamed) == pairs(expected)
    for row in streamed:
        assert row.values == (rows[row.tid][SCHEMA.position("a2")],)


def test_process_mode_reverse_matches_oracle(proc_env):
    rows, service = proc_env
    for rq in reverse_queries(7, rows):
        result = service.submit_reverse(rq).result()
        assert result.qualifying == brute_force_reverse_topk(SCHEMA, rows, rq)


def sigkill_worker(service, shard_id):
    # kill the pool's own process handle, not a name match over
    # active_children(): another live service (e.g. a module fixture
    # elsewhere in the session) may own a same-named worker
    proc = service._transport._handles[shard_id].process
    if not proc.is_alive():
        return False
    proc.kill()
    proc.join(timeout=10)
    return True


@pytest.mark.faults
def test_worker_kill_mid_enumeration_aborts_typed():
    """A murdered shard worker turns the stream into a typed abort whose
    partial rows are a correct prefix; a fresh cursor heals via respawn."""
    rows = make_rows(13)
    cube = build_sharded(SCHEMA, rows, 3, block_size=8)
    query = TopKQuery(3, {}, LinearFunction(["n1", "n2"], [1.0, 0.5]))
    expected = pairs(brute_force_ranked(SCHEMA, rows, query))
    with ShardedQueryService(
        cube, workers=3, mode="process", share_caches=False
    ) as service:
        cursor = service.open_search(query)
        got = pairs(cursor.next_batch(5))
        assert got == expected[:5]
        victim = next(iter(service._transport.shard_ids))
        assert sigkill_worker(service, victim)
        with pytest.raises(QueryAbortedError) as excinfo:
            while not cursor.exhausted:
                got.extend(pairs(cursor.next_batch(5)))
        assert pairs(excinfo.value.partial_rows) == expected[
            len(got) : len(got) + len(excinfo.value.partial_rows)
        ]
        assert got == expected[: len(got)]
        # lazy respawn: the next cursor streams the full oracle order
        with service.open_search(query) as healed:
            assert pairs(drain(healed)) == expected
