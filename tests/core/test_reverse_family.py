"""Reverse top-k runs as one family pass over one snapshot.

:func:`repro.core.reverse.count_family` runs one progressive search per
candidate function, and every search of the query shares the snapshot
the first one pins and everything the family retrieves.  Two
consequences are checked here:

* **One snapshot.**  An append that lands while the family is being
  counted changes no member's count: the answer is the oracle's on the
  rows before the append or after it, never a mix of the two (each
  function once pinned its own snapshot, so a function counted after
  the append saw the appended row and one counted before did not).
* **Decode once.**  Each ``(cuboid, cell, pid)`` is decoded and each
  base block read at most once per reverse query, unsharded and on
  every shard of a thread-mode sharded service, and ``blocks_accessed``
  counts exactly those fetches.
"""

import random
from collections import Counter

import pytest

from repro.core import (
    BaseBlockTable,
    RankingCube,
    RankingCubeExecutor,
    RankingCuboid,
    ReverseTopKQuery,
    reverse_topk,
    simplex_grid_family,
)
from repro.ranking import LinearFunction
from repro.relational import Database, Schema, ranking_attr, selection_attr
from repro.serve import ShardedQueryService
from repro.shard import build_sharded
from repro.workloads.oracle import brute_force_reverse_topk

pytestmark = pytest.mark.reverse

SCHEMA = Schema.of(
    [selection_attr("a1", 3), selection_attr("a2", 4)]
    + [ranking_attr("n1"), ranking_attr("n2")]
)


class AppendingFunction(LinearFunction):
    """``n1 + n2`` that appends a row scoring 0 to the cell ``a1=0,
    a2=0`` (and folds it into the cube's delta store) on its
    ``on_call``-th score."""

    def __init__(self, table, cube, on_call):
        super().__init__(["n1", "n2"], [1.0, 1.0])
        self.table, self.cube, self.on_call, self.calls = table, cube, on_call, 0

    def score(self, point):
        self.calls += 1
        if self.calls == self.on_call:
            self.table.insert_rows([(0, 0, 0.0, 0.0)])
            self.cube.refresh_delta(self.table)
        return super().score(point)


@pytest.mark.parametrize(
    "appender, on_call",
    [
        (1, 1),  # scoring the target: the append lands before any count
        (0, 2),  # scoring a block: the append lands mid-family
    ],
)
def test_one_snapshot_per_reverse_query(appender, on_call):
    rows = [(0, 0, 0.5, 0.5), (0, 0, 0.9, 0.9), (0, 1, 0.8, 0.1), (0, 1, 0.1, 0.8)]
    table = Database(buffer_capacity=64).load_table("R", SCHEMA, rows)
    cube = RankingCube.build(table, block_size=2)
    functions = [LinearFunction(["n1", "n2"], [1.0, 1.0]) for _ in range(2)]
    # the oracle scores with the plain functions: it must not append
    plain = ReverseTopKQuery(0, 1, {"a1": 0, "a2": 0}, functions)
    before = brute_force_reverse_topk(SCHEMA, rows, plain)
    after = brute_force_reverse_topk(SCHEMA, rows + [(0, 0, 0.0, 0.0)], plain)
    assert (before, after) == ([0, 1], [])
    functions[appender] = AppendingFunction(table, cube, on_call)
    query = ReverseTopKQuery(0, 1, {"a1": 0, "a2": 0}, functions)

    result = reverse_topk(RankingCubeExecutor(cube, table), query)

    assert functions[appender].calls >= on_call  # the append did land
    assert table.num_rows == len(rows) + 1
    assert result.qualifying in (before, after)


class Fetches:
    """Pseudo-block decodes keyed ``(cuboid, cell, pid)`` and base-block
    reads keyed ``(base table, bid)``, each object by identity so the
    shards of one service never share a key."""

    def __init__(self):
        self.pseudo = Counter()
        self.base = Counter()

    def clear(self):
        self.pseudo.clear()
        self.base.clear()

    def total(self):
        return sum(self.pseudo.values()) + sum(self.base.values())

    def repeated(self):
        return [key for counter in (self.pseudo, self.base)
                for key, n in counter.items() if n > 1]


@pytest.fixture
def fetches(monkeypatch):
    seen = Fetches()
    decode = RankingCuboid.decode_pseudo_block
    get = BaseBlockTable.get_base_block

    def counting_decode(cuboid, values, pid):
        seen.pseudo[(id(cuboid), values, pid)] += 1
        return decode(cuboid, values, pid)

    def counting_get(table, bid, tids=None):
        seen.base[(id(table), bid)] += 1
        return get(table, bid, tids)

    monkeypatch.setattr(RankingCuboid, "decode_pseudo_block", counting_decode)
    monkeypatch.setattr(BaseBlockTable, "get_base_block", counting_get)
    return seen


def make_rows(count, seed):
    rng = random.Random(seed)
    # n1 on a coarse lattice: many equal scores and equal bounds
    return [
        (rng.randrange(3), rng.randrange(4), round(rng.random(), 1), rng.random())
        for _ in range(count)
    ]


def reverse_queries(rows, rng, count):
    family = simplex_grid_family(["n1", "n2"], 6)
    queries = []
    for _ in range(count):
        tid = rng.randrange(len(rows))
        dims = rng.sample([0, 1], rng.randint(0, 2))
        selections = {f"a{d + 1}": rows[tid][d] for d in dims}
        queries.append(ReverseTopKQuery(tid, rng.randint(1, 12), selections, family))
    return queries


def test_each_page_is_fetched_once_per_reverse_op(fetches):
    rows = make_rows(600, seed=41)
    table = Database(buffer_capacity=256).load_table("R", SCHEMA, rows)
    executor = RankingCubeExecutor(RankingCube.build(table, block_size=6), table)
    qualifying = fetched = 0
    for query in reverse_queries(rows, random.Random(42), 24):
        fetches.clear()
        result = reverse_topk(executor, query)
        assert result.qualifying == brute_force_reverse_topk(SCHEMA, rows, query)
        assert fetches.repeated() == [], query
        assert result.blocks_accessed == fetches.total()
        qualifying += len(result.qualifying)
        fetched += fetches.total()
    assert qualifying > 0 and fetched > 0


def test_each_page_is_fetched_once_per_shard_and_reverse_op(fetches):
    rows = make_rows(600, seed=43)
    cube = build_sharded(SCHEMA, rows, 3, block_size=6)
    # no shared caches: every page a shard needs is decoded by the query
    with ShardedQueryService(
        cube, workers=1, mode="thread", share_caches=False
    ) as service:
        for query in reverse_queries(rows, random.Random(44), 24):
            fetches.clear()
            result = service.submit_reverse(query).result()
            assert result.qualifying == brute_force_reverse_topk(
                SCHEMA, rows, query
            )
            assert fetches.repeated() == [], query
            assert result.blocks_accessed == fetches.total()
