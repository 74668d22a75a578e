"""The paper's running example, narrated step by step (Sections 3.1-3.2).

Recreates Tables 1-6 and Figures 1-3 of the paper: the 5-tuple database,
the equi-depth partition with bin boundaries [0,.4,.45,.8,1] x
[0,.2,.45,.9,1], the pseudo-block scaling, and the two-stage execution of

    SELECT TOP 2 FROM R WHERE A1 = 1 AND A2 = 1 ORDER BY N1 + N2

printing the S and H lists at each stage exactly as Tables 5 and 6 do.

Run with:  python examples/paper_walkthrough.py
"""

import heapq

from repro import Database, LinearFunction, RankingCube, RankingCubeExecutor, Schema, TopKQuery
from repro.core import ExecutorTrace, grid_from_boundaries
from repro.relational import ranking_attr, selection_attr

BIN_N1 = (0.0, 0.4, 0.45, 0.8, 1.0)
BIN_N2 = (0.0, 0.2, 0.45, 0.9, 1.0)

#: Reconstructed Table 1: (A1, A2, N1, N2); tid i is the paper's t_{i+1}.
ROWS = [
    (1, 1, 0.05, 0.05),  # t1
    (0, 0, 0.90, 0.95),  # t2
    (1, 1, 0.05, 0.25),  # t3
    (1, 1, 0.35, 0.15),  # t4
    (1, 0, 0.50, 0.50),  # t5
]


def paper_name(bid, grid):
    """Map a 0-based bid back to the paper's b1..b16 naming."""
    col, row = grid.coords_of(bid)
    return f"b{row * 4 + col + 1}"


def main() -> None:
    schema = Schema.of(
        [
            selection_attr("A1", 2),
            selection_attr("A2", 2),
            ranking_attr("N1"),
            ranking_attr("N2"),
        ]
    )
    db = Database()
    table = db.load_table("R", schema, ROWS)
    grid = grid_from_boundaries(("N1", "N2"), [BIN_N1, BIN_N2])
    cube = RankingCube.build(table, grid=grid, block_size=30)

    print("Table 1 — the example database:")
    print("  tid  A1  A2    N1    N2")
    for tid, (a1, a2, n1, n2) in enumerate(ROWS):
        print(f"  t{tid + 1:<3} {a1:2d}  {a2:2d}  {n1:.2f}  {n2:.2f}")

    print("\nTable 4 — meta information:")
    print(f"  bin boundaries of N1: {list(BIN_N1)}")
    print(f"  bin boundaries of N2: {list(BIN_N2)}")
    cuboid = cube.cuboid(("A1", "A2"))
    print(f"  scale factor of cuboid A1A2|N1N2: {cuboid.scale_factor}")

    print("\nFigure 1 — equi-depth partitioning (tuple -> base block):")
    for tid, row in enumerate(ROWS):
        bid = grid.locate(row[2:])
        print(f"  t{tid + 1} -> {paper_name(bid, grid)}")

    print("\nTable 3 — cuboid cell (A1=1, A2=1, p1):")
    entries = sorted(cuboid.get_pseudo_block((1, 1), 0))
    rendered = ", ".join(
        f"t{tid + 1}({paper_name(bid, grid)})" for tid, bid in entries
    )
    print(f"  {rendered}")

    print("\nSection 3.2.3 — processing the top-2 query:")
    fn = LinearFunction(["N1", "N2"], [1.0, 1.0])
    query = TopKQuery(2, {"A1": 1, "A2": 1}, fn)
    positions = grid.project(fn.dims)

    # Re-run the search loop manually to print stage-by-stage lists.
    def bound(bid):
        lower, upper = grid.sub_box(bid, positions)
        return fn.min_over_box(lower, upper)

    start = grid.locate((0.0, 0.0))
    frontier = [(bound(start), start)]
    inserted = {start}
    seen: list[tuple[float, int]] = []
    executor = RankingCubeExecutor(cube, table)
    stage = 0
    while frontier:
        s_unseen = frontier[0][0]
        if len(seen) >= 2 and max(s for s, _t in seen[:2]) <= s_unseen:
            print(f"\n  stop: S_2 = {sorted(seen)[1][0]:.2f} <= "
                  f"S_unseen = {s_unseen:.2f}")
            break
        _b, bid = heapq.heappop(frontier)
        stage += 1
        print(f"\n  stage {stage}: candidate block {paper_name(bid, grid)}")
        entries = cuboid.get_pseudo_block((1, 1), cuboid.pid_of_bid(bid))
        tids = [tid for tid, entry_bid in entries if entry_bid == bid]
        for tid, values in cube.base_table.get_base_block(bid):
            if tid not in tids:
                continue
            score = fn.score([values[p] for p in positions])
            seen.append((score, tid))
            print(f"    evaluate t{tid + 1}: f = {score:.2f}")
        for neighbor in grid.neighbors(bid):
            if neighbor not in inserted:
                inserted.add(neighbor)
                heapq.heappush(frontier, (bound(neighbor), neighbor))
        seen.sort()
        s_list = ", ".join(f"f(t{t + 1})={s:.2f}" for s, t in seen)
        h_list = ", ".join(
            f"f({paper_name(b, grid)})={s:.2f}" for s, b in sorted(frontier)
        )
        print(f"    S list: {s_list}")
        print(f"    H list: {h_list}")

    result = executor.execute(query, trace=(trace := ExecutorTrace()))
    answers = ", ".join(f"t{r.tid + 1} (f={r.score:.2f})" for r in result)
    print(f"\n  answer: {answers}")
    print(f"  executor trace: candidate blocks "
          f"{[paper_name(b, grid) for b in trace.candidate_bids]}, "
          f"{trace.pseudo_entries} pseudo block(s) opened, "
          f"{trace.pseudo_block_fetches} pseudo-block fetch(es), "
          f"{trace.pseudo_block_buffer_hits} buffer hit(s)")


if __name__ == "__main__":
    main()
