"""The sparse frontier reads the pages the bid frontier read.

``ProgressiveSearch`` keeps pseudo blocks of the query's lead cuboid on
its frontier and, once one is opened, only the bids in it that hold a
tuple of the query's cell.  The reference below is the frontier it
replaced, copied here: every bid of the grid is a candidate, popped in
``(f(bid), bid)`` order, retrieved through a per-query pseudo-block
buffer and expanded to its face neighbours (Lemma 1).

The claim is that the two read the same pages.  A pseudo block is fetched
iff some bid in it has a bound at or below the threshold at the time, and
its key is its bids' least bound, so it is opened exactly when the bid
frontier would have popped its first bid.  A base block is read iff a
non-empty bid is popped, and both frontiers pop non-empty bids in bound
order.  Over random grids, 1-3 selection dimensions, full cubes and
fragment families, and linear, L2 and quadratic functions, this suite
checks for ``execute`` and at every any-k batch end: equal answers,
``blocks_accessed`` and ``tuples_examined``, and equal sets of fetched
``(cuboid, pid)`` and read bids.

Reverse top-k's family pass (``count_family``) stops each function as
soon as it has counted its cap of predecessors, which can fall inside a
run of entries with equal bounds.  The sparse frontier breaks such ties
another way (bids before pseudo blocks, then by id), so there only exact
bound ties at the early reject can reorder the fetches: counts are
always equal, and a function counted alone reads the reference's pages
whenever its last popped bound is shared by no other block.  The
weights (1, 0) and (0, 1) always tie (every block of a column shares a
bound), so the suite counts the page checks that ran.  Counted as a
family, the functions share what they retrieve: the family fetches
exactly the union of the pages its members fetch alone, and its
``blocks_accessed`` is the number of distinct pages it fetched.
"""

import heapq
import random

import pytest

from repro.core import (
    BaseBlockTable,
    ExecutorTrace,
    FragmentedRankingCube,
    RankingCube,
    RankingCubeExecutor,
    RankingCuboid,
    simplex_grid_family,
)
from repro.core.executor import ProgressiveSearch
from repro.core.reverse import ReverseTopKResult, count_family
from repro.ranking import LinearFunction, LpDistance, QuadraticForm
from repro.relational import Database, Schema, TopKQuery, ranking_attr, selection_attr


class Reads:
    """The pseudo blocks decoded and the base blocks read."""

    def __init__(self):
        self.pseudo: set[tuple[str, int]] = set()
        self.base: set[int] = set()

    def clear(self):
        self.pseudo.clear()
        self.base.clear()

    def sets(self):
        return set(self.pseudo), set(self.base)


@pytest.fixture
def reads(monkeypatch):
    seen = Reads()
    decode = RankingCuboid.decode_pseudo_block
    get = BaseBlockTable.get_base_block

    def recording_decode(cuboid, values, pid):
        seen.pseudo.add((cuboid.name, pid))
        return decode(cuboid, values, pid)

    def recording_get(table, bid, tids=None):
        seen.base.add(bid)
        return get(table, bid, tids)

    monkeypatch.setattr(RankingCuboid, "decode_pseudo_block", recording_decode)
    monkeypatch.setattr(BaseBlockTable, "get_base_block", recording_get)
    return seen


class BidFrontier:
    """The bid-at-a-time search the sparse frontier replaced."""

    def __init__(self, executor, query):
        snapshot = executor.cube.snapshot()
        self.grid = grid = snapshot.grid
        self.base_table = snapshot.base_table
        self.fn = fn = query.ranking
        self.query = query
        self.positions = grid.project(fn.dims)
        self.cells = [
            (cuboid, tuple(query.selections[d] for d in cuboid.dims), {})
            for cuboid in snapshot.covering_cuboids(query.selection_names)
        ]
        lower, upper = grid.full_box()
        minimizer = fn.argmin_over_box(
            [lower[p] for p in self.positions], [upper[p] for p in self.positions]
        )
        point = list(lower)
        for value, p in zip(minimizer, self.positions):
            point[p] = value
        start = grid.locate(point)
        self.frontier = [(self.bound(start), start)]
        self.inserted = {start}
        self.blocks = self.tuples = 0
        self.topk: list[tuple[float, int]] = []

    def bound(self, bid):
        return self.fn.min_over_box(*self.grid.sub_box(bid, self.positions))

    @property
    def best_unseen(self):
        return self.frontier[0][0] if self.frontier else float("inf")

    @property
    def exhausted(self):
        return not self.frontier

    def step(self):
        _bound, bid = heapq.heappop(self.frontier)
        qualifying = None
        for cuboid, values, buffer in self.cells:
            pid = cuboid.pid_of_bid(bid)
            if pid not in buffer:
                buffer[pid] = cuboid.decode_pseudo_block(values, pid)
                self.blocks += 1
            tids = set(buffer[pid].get(bid, ()))
            qualifying = tids if qualifying is None else qualifying & tids
            if not qualifying:
                break
        scored = []
        if qualifying is None or qualifying:
            self.blocks += 1
            for tid, values in self.base_table.get_base_block(bid, qualifying):
                self.tuples += 1
                scored.append((self.fn.score([values[p] for p in self.positions]), tid))
        for neighbor in self.grid.neighbors(bid):
            if neighbor not in self.inserted:
                self.inserted.add(neighbor)
                heapq.heappush(self.frontier, (self.bound(neighbor), neighbor))
        return scored

    def run(self):
        """Top-k under the stop rule; returns ascending ``(score, tid)``."""
        k = self.query.k
        while self.frontier and not (
            len(self.topk) >= k and self.best_unseen > -self.topk[0][0]
        ):
            for score, tid in self.step():
                entry = (-score, -tid)
                if len(self.topk) < k:
                    heapq.heappush(self.topk, entry)
                elif entry > self.topk[0]:
                    heapq.heapreplace(self.topk, entry)
        return sorted((-s, -t) for s, t in self.topk)


def reference_batches(search, sizes):
    """Any-k enumeration over ``search``, as ``AnyKCursor`` certifies it."""
    buffer: list[tuple[float, int]] = []
    for size in sizes:
        rows = []
        while len(rows) < size:
            if buffer and (search.exhausted or buffer[0][0] < search.best_unseen):
                rows.append(heapq.heappop(buffer))
            elif search.exhausted:
                break
            else:
                for pair in search.step():
                    heapq.heappush(buffer, pair)
        yield rows


def reference_count(search, t_score, tie_tid, cap):
    """One function's predecessor count over ``search``, as the family
    pass counts it; also the last popped bound."""
    preceding, last = 0, None
    while preceding < cap and not search.exhausted and search.best_unseen <= t_score:
        last = search.best_unseen
        for score, tid in search.step():
            if (score, tid) < (t_score, tie_tid):
                preceding += 1
    return preceding, last


def random_function(rng):
    kind = rng.choice(["linear", "l2", "quadratic"])
    if kind == "linear":
        return LinearFunction(["n1", "n2"], [rng.uniform(-2, 2), rng.uniform(-2, 2)])
    if kind == "l2":
        return LpDistance(["n1", "n2"], [rng.random(), rng.random()], p=2.0)
    a, b = rng.uniform(0.2, 2), rng.uniform(0.2, 2)
    c = rng.uniform(-1, 1) * (a * b) ** 0.5 * 0.9
    return QuadraticForm(
        ["n1", "n2"], [[a, c], [c, b]], center=[rng.random(), rng.random()]
    )


def random_deployment(seed):
    """A random table and cube: full or fragments, 3 selection dims."""
    rng = random.Random(seed)
    cards = [rng.randint(2, 5) for _ in range(3)]
    schema = Schema.of(
        [selection_attr(f"a{i + 1}", card) for i, card in enumerate(cards)]
        + [ranking_attr("n1"), ranking_attr("n2")]
    )
    # n1 rounded to 2 places in some rows: equal scores and equal bounds
    rows = [
        tuple(rng.randrange(card) for card in cards)
        + (round(rng.random(), rng.choice([2, 6])), rng.random())
        for _ in range(rng.randint(120, 360))
    ]
    table = Database(buffer_capacity=512).load_table("R", schema, rows)
    block_size = rng.choice([3, 5, 8, 12])
    if seed % 3 == 2:
        cube = FragmentedRankingCube.build_fragments(
            table, fragment_size=rng.choice([1, 2]), block_size=block_size
        )
    else:
        cube = RankingCube.build(table, block_size=block_size)
    return rng, cards, rows, RankingCubeExecutor(cube, table)


def random_selection(rng, cards):
    dims = rng.sample(range(3), rng.randint(1, 3))
    return {f"a{d + 1}": rng.randrange(cards[d]) for d in dims}


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_execute_reads_the_bid_frontiers_pages(seed, reads):
    rng, cards, _rows, executor = random_deployment(seed)
    for _ in range(6):
        query = TopKQuery(
            rng.randint(1, 20), random_selection(rng, cards), random_function(rng)
        )
        reads.clear()
        result = executor.execute(query)
        new_reads = reads.sets()
        reads.clear()
        reference = BidFrontier(executor, query)
        expected = reference.run()
        assert [(row.score, row.tid) for row in result.rows] == expected
        assert result.blocks_accessed == reference.blocks
        assert result.tuples_examined == reference.tuples
        assert new_reads == reads.sets(), query


@pytest.mark.parametrize("seed", SEEDS)
def test_cursor_batch_ends_read_the_bid_frontiers_pages(seed, reads):
    rng, cards, _rows, executor = random_deployment(seed)
    for _ in range(3):
        query = TopKQuery(
            rng.randint(1, 5), random_selection(rng, cards), random_function(rng)
        )
        sizes = [rng.randint(1, 12) for _ in range(4)]
        reads.clear()
        cursor = executor.open_search(query)
        new = []
        for size in sizes:
            rows = [(row.score, row.tid) for row in cursor.next_batch(size)]
            live = cursor.search.result
            new.append((rows, live.blocks_accessed, live.tuples_examined, reads.sets()))
        reads.clear()
        reference = BidFrontier(executor, query)
        for (rows, blocks, tuples, pages), expected in zip(
            new, reference_batches(reference, sizes)
        ):
            assert rows == expected
            assert (blocks, tuples) == (reference.blocks, reference.tuples)
            assert pages == reads.sets(), query


@pytest.mark.parametrize("seed", SEEDS)
def test_count_preceding_counts_as_the_bid_frontier(seed, reads):
    rng, cards, rows, executor = random_deployment(seed)
    family = simplex_grid_family(["n1", "n2"], 4)
    weights = [tuple(fn.weights) for fn in family]
    assert (0.0, 1.0) in weights and (1.0, 0.0) in weights
    grid = executor.cube.grid
    page_checks = 0
    for _ in range(3):
        target = rng.randrange(len(rows))
        selections = {
            f"a{d + 1}": rows[target][d] for d in rng.sample(range(3), rng.randint(1, 3))
        }
        members = [
            (fn, fn.score(rows[target][3:]), rng.randint(1, 10)) for fn in family
        ]
        reads.clear()
        work = ReverseTopKResult()
        counts = count_family(executor, selections, members, target, work)
        pseudo, base = reads.sets()
        assert work.blocks_accessed == len(pseudo) + len(base)
        alone_pseudo, alone_base = set(), set()
        untied_pseudo, untied_base = set(), set()
        for member, count in zip(members, counts):
            fn, t_score, cap = member
            reads.clear()
            [alone] = count_family(
                executor, selections, [member], target, ReverseTopKResult()
            )
            alone_reads = reads.sets()
            alone_pseudo |= reads.pseudo
            alone_base |= reads.base
            reads.clear()
            reference = BidFrontier(executor, TopKQuery(cap, selections, fn))
            expected, last = reference_count(reference, t_score, target, cap)
            assert count == alone == expected, (fn.weights, t_score, cap)
            bounds = [reference.bound(bid) for bid in range(grid.num_blocks)]
            if last is None or bounds.count(last) == 1:
                assert alone_reads == reads.sets(), (fn.weights, t_score, cap)
                untied_pseudo |= reads.pseudo
                untied_base |= reads.base
                page_checks += 1
        # sharing retrieval changes no member's reads, only how often
        # they are fetched
        assert (pseudo, base) == (alone_pseudo, alone_base), selections
        assert untied_pseudo <= pseudo and untied_base <= base, selections
    # the middle functions are rarely tied; (1, 0) and (0, 1) always are
    assert page_checks >= 3, page_checks


def test_bids_pop_before_pseudo_blocks_at_equal_bounds():
    """At an equal bound a bid pops before a pseudo block.  ``n1`` alone
    ranks, so every block of an ``n1`` column shares a bound and a bid
    and a pseudo block often tie at the head of the frontier."""
    rng = random.Random(5)
    schema = Schema.of(
        [selection_attr("a1", 2), ranking_attr("n1"), ranking_attr("n2")]
    )
    rows = [(rng.randrange(2), rng.random(), rng.random()) for _ in range(600)]
    table = Database(buffer_capacity=256).load_table("R", schema, rows)
    cube = RankingCube.build(table, block_size=4, pseudo_scale_override=3)
    trace = ExecutorTrace()
    search = ProgressiveSearch(
        RankingCubeExecutor(cube, table),
        TopKQuery(5, {"a1": 0}, LinearFunction(["n1", "n2"], [1.0, 0.0])),
        trace,
    )
    contested = 0
    while not search.exhausted:
        bound = search.best_unseen
        tied = {kind for b, kind, _id in search._frontier if b == bound}
        opened = trace.pseudo_entries
        search.step()
        popped = trace.pseudo_entries - opened  # 1: a pseudo block
        assert popped == min(tied), (bound, tied)
        contested += tied == {0, 1}
    assert contested > 0, "no bid tied a pseudo block: the check is vacuous"
