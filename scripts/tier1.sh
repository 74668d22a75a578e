#!/bin/sh
# Tier-1 gate: the checks every change must pass before merging.
#
#   1. fast test suite  — pytest -m "not slow and not serve and not faults"
#                         (the sub-minute core: storage, cube, executor,
#                         obs invariants; the slow/serve/faults suites run
#                         in the full gate, `PYTHONPATH=src python -m pytest`).
#                         Includes tests/core/test_single_search.py, the
#                         structural test that the four-step loop, the plan
#                         and the stop rule exist once (ProgressiveSearch)
#                         and no second frontier loop has grown back, and
#                         tests/core/test_single_node_codec.py, the
#                         structural test that B+-tree nodes have one
#                         (struct-packed) format: nothing under
#                         repro/index/ imports pickle and no tree owner
#                         takes a fanout; and that every cuboid is a
#                         ChainStore: no function under src/repro takes
#                         a compress parameter and no CompressedChainStore
#                         / compressed / encode_tid_list / decode_tid_list
#                         identifier is left.  test_single_search.py also pins
#                         min_over_box( to one (fallback) call site and the
#                         evaluate step's get_base_block(bid, qualifying)
#                         read, and keeps one scoring engine: _score_block
#                         is the only base-block reader, _expand_neighbors
#                         bounds only through _block_bound, the executor
#                         imports nothing from repro.vector, and no
#                         use_vector / include_vector / block_k identifier
#                         is left under src/repro.  tests/test_doc_references.py
#                         checks that every repro.x.y name in README.md,
#                         DESIGN.md and ROADMAP.md resolves and every file.py:N
#                         reference points at an existing line;
#                         tests/ranking/test_bound_terms.py is the bitwise
#                         property test that per-bin bound tables fold to
#                         min_over_box and each pseudo block's frontier key
#                         to its bids' least bound;
#                         tests/ranking/test_certified_bounds.py that every
#                         ranking function's min_over_box is a lower bound
#                         of its score on 10,000 random boxes per family
#                         (linear, Lp p=1/2/3, quadratic, smooth and kinked
#                         ConvexFunction), that descending and SQL DESC
#                         refuse non-linear functions, and that a bad row
#                         batch reaches neither the table nor the WAL;
#                         tests/properties/test_sparse_frontier.py that the
#                         sparse frontier (pseudo blocks, then only their
#                         non-empty bids) reads the pages of a test-local
#                         copy of the bid frontier — execute and any-k
#                         batch ends: answers, blocks, tuples and fetched
#                         (cuboid, pid) / read-bid sets; count_family:
#                         equal counts per function, each untied function's
#                         pages counted alone, and the family's pages the
#                         union of its members' — and pops bids before
#                         pseudo blocks at equal bounds;
#                         tests/core/test_reverse_family.py
#                         that a reverse query counts over one snapshot
#                         (an append mid-query gives a before- or
#                         after-append answer, never a mix) and decodes
#                         each (cuboid, cell, pid) and reads each bid at
#                         most once, unsharded and per shard;
#                         tests/core/test_single_reverse.py, the
#                         structural test that reverse_topk and
#                         ShardEndpoint.reverse_count run the one
#                         count_family pass, the only place reverse.py
#                         opens a ProgressiveSearch, and that the sharded
#                         front end asks each shard once;
#                         and tests/core/test_selective_read.py
#                         that a selective read is the full read filtered,
#                         at identical page reads and buffer hits/misses.
#                         tests/core/test_splice.py is the property that a
#                         ChainStore splice (old run bytes + encoded
#                         additions) writes the page images write writes
#                         for the union; tests/core/test_columnar_build.py
#                         that the array grouping (group_rows /
#                         encode_runs) equals a per-record dict-of-lists +
#                         struct.pack reference byte for byte, leaves
#                         plain-int counts and locators, and raises
#                         CubeError on a value struct.pack refused before
#                         any page is written; and test_compaction.py's
#                         test_device_image_equals_the_full_rewrite that a
#                         compaction leaves the device fingerprint of a
#                         decode-everything rewrite.  tests/serve/
#                         test_block_cache.py (unmarked) is the shared
#                         base-block cache's equivalence test: a served
#                         stream against a bare executor, rows bit for bit
#                         and blocks/candidates/tuples equal, cold and
#                         warm, across an append and a compaction, and a
#                         routed service whose cube path shares the
#                         service's (uid, bid)-keyed cache; its
#                         test_an_unpickled_table_draws_a_fresh_uid pins
#                         the cache key's uid as unique across pickling.
#                         test_single_search.py pins the evaluate step's
#                         two reads: get_base_block(bid, qualifying)
#                         without a block cache, get_base_block(bid) on a
#                         miss.  tests/core/test_delta.py is the
#                         cell-indexed delta store: the property that
#                         snapshot.delta_matches equals a brute filter of
#                         the snapshot's entries under random appends,
#                         snapshots, compactions and repartitions (old
#                         snapshots keep their answers), a Workspace
#                         reload, the count that an append decodes each
#                         heap page once, the concurrent-refresh race, and
#                         int-key bulk_load rejections;
#                         test_compaction.py's
#                         test_compacted_cuboids_share_the_warm_pseudo_map
#                         that a compaction keeps the pseudo-block map.
#                         tests/test_examples.py runs every examples/*.py
#                         script to completion (in-process, output
#                         captured), and tests/route/test_single_router.py
#                         is the structural test that AdaptiveRouter is the
#                         only router: repro.core.hybrid / multigrid do not
#                         import, only route/router.py calls the cost
#                         estimators (and route/advisor.py, which chooses
#                         cuboids, not paths), and no HybridExecutor /
#                         MultiCubeRouter identifier is left; that
#                         the learned cost model is gone: repro.route.cost
#                         / signature do not import and no CostBook /
#                         prior_strength / probe_margin / shape_of
#                         identifier is left; and that cuboid selection
#                         has one objective: repro.core.advisor / grouping
#                         do not import and no hot_fraction /
#                         cold_fraction / max_promote_dims /
#                         recommend_fragments / FragmentDesign /
#                         cooccurrence_grouping / realized_fragment_entries
#                         identifier is left.
#                         tests/core/test_maintenance_races.py is the race
#                         matrix: every (outer, inner) pair of compaction,
#                         repartition and the cuboid advisor, the inner
#                         run inside the outer's pre-swap pool.flush(); the
#                         outer aborts, the inner's change survives and
#                         answers equal the oracle.  tests/core/
#                         test_single_install.py is the structural test
#                         that only core/cube.py writes cube state (one
#                         RankingCube.install) and the maintenance daemon
#                         loop (start / wake / _worker) is written once,
#                         and (test_one_build_path) that the build has one
#                         grouping path: repro.core.parallel does not
#                         import, locate_many( is called only in
#                         group_rows, no ProcessPoolExecutor is left under
#                         core/, no build entry point takes workers,
#                         ChainStore has no build and nothing under core/
#                         calls a pack (no per-record packing).
#                         tests/serve/test_single_front_end.py is the
#                         structural test that the serving front end is
#                         written once under src/repro/serve/: _admit,
#                         _record, _retain_spans, run_batch,
#                         submit_reverse and __exit__ each in one service
#                         class, submit only where the ledger probes it,
#                         one latency_s record dataclass and one
#                         PseudoBlockCache( call site; tests/serve/
#                         test_close_race.py that a submit racing close()
#                         raises ServiceClosedError on every service
#   2. gate cases       — tests/serve/test_single_path.py, the structural
#                         test that sharded serving is ONE merge loop over
#                         two transports (no thread/process fork in
#                         serve/sharded.py; only _fan_out, on the
#                         transport's say-so, hands a shard call to the
#                         step pool), plus the serve-marked gate cases the
#                         fast suite skips: on a zipf stream, in thread and
#                         process mode, answers equal the unsharded cube's,
#                         the hottest shard reads fewer pages per query
#                         than the unsharded cube and the early-stop merge
#                         examines fewer candidates than a naive gather
#                         (test_hot_shard_and_early_stop_gates); shared
#                         caches cut device reads per query >= 2x against
#                         a cold serial replay (TestServingGate); and a
#                         clean WAL stream recovers every row
#                         (test_clean_stream_replays_every_row).  The fast
#                         suite holds the other ported gates: the figure
#                         page pins (tests/bench/test_experiments.py), the
#                         build image pin, the reverse oracle + pruning
#                         gate and the adaptive-vs-best-static replay
#   3. obs coverage     — >= 85% line coverage on src/repro/obs via the
#                         stdlib tracer (scripts/obs_coverage.py)
#   4. ledger smoke     — the end-to-end benchmark's own unit tests, then
#                         every ledger workload at smoke size, untraced and
#                         traced, with every op oracle-checked; fails when a
#                         probed callable (BlockGrid.neighbors,
#                         PseudoBlockMap.pid_of_bid, ...) was renamed or
#                         re-homed without the ledger's call surface
#
# Run from the repository root:  sh scripts/tier1.sh
set -e

cd "$(dirname "$0")/.."
export PYTHONPATH=src
# Per-test wall-clock budget (stdlib SIGALRM watchdog, tests/conftest.py):
# a wedged shard worker fails its one test with stack dumps instead of
# stalling the whole gate.  Tests may tighten it with @pytest.mark.timeout.
export REPRO_TEST_TIMEOUT="${REPRO_TEST_TIMEOUT:-300}"

echo "== tier1 1/4: fast test suite (incl. structural single-search/one-engine + single-node-codec + one-router/one-cost-model/one-cuboid-objective + single-install/one-build-path + single-front-end tests, submit/close race, maintenance race matrix, examples test, doc-reference test, bound-table + certified-bound (test_certified_bounds.py) + sparse-frontier + selective-read + splice properties, columnar-build equivalence (test_columnar_build.py), reverse family pass (one snapshot, decode once, single-reverse), block-cache equivalence, indexed delta, figure page pins, build image pin, reverse + adaptive gates) =="
python -m pytest -m "not slow and not serve and not faults" -q

echo "== tier1 2/4: sharded serving single-path test + serve-marked gate cases (identity, hot shard, early stop, shared-cache reads, WAL replay) =="
python -m pytest -q tests/serve/test_single_path.py \
    tests/shard/test_service.py::TestShardedQueryService::test_hot_shard_and_early_stop_gates \
    tests/shard/test_process_service.py::TestProcessModeService::test_hot_shard_and_early_stop_gates \
    tests/serve/test_service.py::TestServingGate \
    tests/faults/test_ingest_crash.py::TestIngestKillMatrix::test_clean_stream_replays_every_row

echo "== tier1 3/4: obs coverage floor =="
python scripts/obs_coverage.py

echo "== tier1 4/4: ledger unit tests + smoke run (call surface + oracle gates) =="
python -m pytest benchmarks/ledger/tests -q
LEDGER_SMOKE_OUT="$(mktemp /tmp/LEDGER_smoke.XXXXXX.json)"
python3 benchmarks/ledger/run.py run --smoke --out "$LEDGER_SMOKE_OUT"
rm -f "$LEDGER_SMOKE_OUT"

echo "tier1: all gates passed"
