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
#                         takes a fanout.  test_single_search.py also pins
#                         min_over_box( to one (fallback) call site and the
#                         row path's get_base_block(bid, qualifying) read;
#                         tests/ranking/test_bound_terms.py is the bitwise
#                         property test that per-bin bound tables fold to
#                         min_over_box, and tests/core/test_selective_read.py
#                         that a selective read is the full read filtered,
#                         at identical page reads and buffer hits/misses.
#                         tests/core/test_splice.py is the property that a
#                         ChainStore splice (old run bytes + packed
#                         additions) writes the page images build writes
#                         for the union, and test_compaction.py's
#                         test_device_image_equals_the_full_rewrite that a
#                         compaction leaves the device fingerprint of a
#                         decode-everything rewrite.  tests/serve/
#                         test_block_cache.py (unmarked) is the shared
#                         base-block cache's equivalence test: a served
#                         row-engine stream against a bare executor, rows
#                         bit for bit and blocks/candidates/tuples equal,
#                         cold and warm, across an append, a compaction
#                         and a routed service sharing one cache; its
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
#                         that a compaction keeps the pseudo-block map
#   2. bench check      — re-runs the smoke-sized checked-in baselines in
#                         results/ and fails on any metric outside its
#                         declared tolerance (see repro/bench/check.py).
#                         Page counts (device_writes, device reads per
#                         query, the build image fingerprint) are exact
#                         or 1%-tolerance metrics here: a change to a
#                         page format must re-bless them on purpose
#   3. build smoke      — parallel-vs-serial cube construction at smoke
#                         size; fails unless the parallel device image is
#                         byte-identical (tree node pages included) and
#                         answers match (the speedup assertion stays off
#                         at smoke size)
#   4. shard smoke      — sharded scatter-gather serving at smoke size:
#                         ONE merge loop over two transports (in-process
#                         endpoints, worker pipes).  First the structural
#                         test that no thread/process fork has grown back
#                         in serve/sharded.py and that only _fan_out, on
#                         the transport's say-so (calls_block), hands a
#                         shard call to the step pool; then both modes;
#                         fails unless answers are identical to the unsharded
#                         cube in each, the hottest shard's per-query
#                         device reads beat the unsharded baseline, and
#                         the early-stop merge prunes vs a naive pass
#   5. vector smoke     — columnar batched execution at smoke size; fails
#                         unless the vector engine's answers are
#                         byte-identical to the row executor's (the 5x
#                         speedup assertion stays off at smoke size)
#   6. anyk smoke       — any-k enumeration + reverse top-k at smoke size;
#                         fails unless every streamed prefix and every
#                         qualifying set equals the brute-force oracle and
#                         the reverse frontier actually prunes
#   7. ingest smoke     — WAL-backed streaming ingestion at smoke size;
#                         fails unless crash recovery replays the exact
#                         durable prefix, every induced shard-primary kill
#                         heals through a warm replica with zero wrong
#                         answers, and recovery time stays bounded
#   8. adaptive smoke   — cost-routed planning over a drifting stream at
#                         smoke size; fails unless the adaptive router
#                         strictly beats the best static configuration,
#                         the drifted append triggers an online grid
#                         re-partition, and every answer equals the
#                         brute-force oracle bitwise
#   9. obs coverage     — >= 85% line coverage on src/repro/obs via the
#                         stdlib tracer (scripts/obs_coverage.py)
#  10. ledger smoke      — the end-to-end benchmark's own unit tests, then
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

echo "== tier1 1/10: fast test suite (incl. single-search + single-node-codec structural tests, bound-table + selective-read + splice properties, compaction fingerprint, block-cache equivalence + table-uid tests, indexed-delta property + page-once append) =="
python -m pytest -m "not slow and not serve and not faults" -q

echo "== tier1 2/10: bench regression gate (smoke) =="
python -m repro.bench check --baseline results/ --smoke

echo "== tier1 3/10: parallel build smoke (byte-identity gate) =="
BUILD_SMOKE_OUT="$(mktemp /tmp/BENCH_build_smoke.XXXXXX.json)"
python -m repro.bench build --smoke --out "$BUILD_SMOKE_OUT"
rm -f "$BUILD_SMOKE_OUT"

echo "== tier1 4/10: sharded serving smoke (one loop, two transports: single-path + one-fan-out + identity + hot-shard gates) =="
python -m pytest tests/serve/test_single_path.py -q
SHARD_SMOKE_OUT="$(mktemp /tmp/BENCH_shard_smoke.XXXXXX.json)"
python -m repro.bench shard --smoke --out "$SHARD_SMOKE_OUT"
rm -f "$SHARD_SMOKE_OUT"

echo "== tier1 5/10: vector engine smoke (byte-identity gate) =="
VECTOR_SMOKE_OUT="$(mktemp /tmp/BENCH_vector_smoke.XXXXXX.json)"
python -m repro.bench vector --smoke --out "$VECTOR_SMOKE_OUT"
rm -f "$VECTOR_SMOKE_OUT"

echo "== tier1 6/10: any-k / reverse smoke (oracle + pruning gates) =="
ANYK_SMOKE_OUT="$(mktemp /tmp/BENCH_anyk_smoke.XXXXXX.json)"
python -m repro.bench anyk --smoke --out "$ANYK_SMOKE_OUT"
rm -f "$ANYK_SMOKE_OUT"

echo "== tier1 7/10: durable ingestion smoke (recovery + failover gates) =="
INGEST_SMOKE_OUT="$(mktemp /tmp/BENCH_ingest_smoke.XXXXXX.json)"
python -m repro.bench ingest --smoke --out "$INGEST_SMOKE_OUT"
rm -f "$INGEST_SMOKE_OUT"

echo "== tier1 8/10: adaptive routing smoke (beats-best-static + oracle gates) =="
ADAPTIVE_SMOKE_OUT="$(mktemp /tmp/BENCH_adaptive_smoke.XXXXXX.json)"
python -m repro.bench adaptive --smoke --out "$ADAPTIVE_SMOKE_OUT"
rm -f "$ADAPTIVE_SMOKE_OUT"

echo "== tier1 9/10: obs coverage floor =="
python scripts/obs_coverage.py

echo "== tier1 10/10: ledger unit tests + smoke run (call surface + oracle gates) =="
python -m pytest benchmarks/ledger/tests -q
LEDGER_SMOKE_OUT="$(mktemp /tmp/LEDGER_smoke.XXXXXX.json)"
python3 benchmarks/ledger/run.py run --smoke --out "$LEDGER_SMOKE_OUT"
rm -f "$LEDGER_SMOKE_OUT"

echo "tier1: all gates passed"
