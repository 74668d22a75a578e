"""The six workloads: what each sets up, generates from ``--seed``, runs
per op, and checks against the oracle.

Every workload is a closed loop: a client issues its next op when the
previous one returned.  An op list is generated once per run and replayed
unchanged in every round, so per-round counts must repeat exactly and a
round's answers must hash equal to round 1's.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import NamedTuple

import stack
from measure import signature

CLOCK = time.perf_counter_ns


@dataclass(frozen=True)
class Scale:
    """Sizes of one run.  ``FULL`` is what ``BENCHMARK.json`` measures;
    ``SMOKE`` exercises the same code in seconds."""

    tuples: int               # the common dataset, D100k at full scale
    topk_ops: int
    serve_ops: int
    shard_thread_ops: int
    shard_process_ops: int
    cursors: int
    reverses: int
    ingest_base: int
    ingest_cycles: int        # compaction cycles per round
    ingest_batch: int         # rows per append
    ingest_appends: int       # appends per cycle (threshold = batch * this)
    verify: int | None        # oracle checks per kind of op; None = all
    verify_reverse: int | None  # same for reverse ops (their oracle is 7x dearer)
    min_rounds: int
    setups: int               # how often set-up is timed per run


#: Round sizes are cut from ISSUE.md's (1000 / 1000 / 300 / 400 / 250
#: ops, 200 appends) so that 136 driver runs fit the contract's hour, and
#: kept near the fewest ops a p95 needs (201): what steadies a run on this
#: host is how often each op is replayed, not how many ops a round holds
#: (README.md "Sizes").
FULL = Scale(
    tuples=100_000, topk_ops=384, serve_ops=300, shard_thread_ops=240,
    shard_process_ops=240, cursors=80, reverses=121, ingest_base=20_000,
    ingest_cycles=4, ingest_batch=100, ingest_appends=10, verify=6,
    verify_reverse=1, min_rounds=4, setups=2,
)
SMOKE = Scale(
    tuples=2_000, topk_ops=96, serve_ops=100, shard_thread_ops=40,
    shard_process_ops=40, cursors=10, reverses=15, ingest_base=1_000,
    ingest_cycles=2, ingest_batch=20, ingest_appends=5, verify=None,
    verify_reverse=None, min_rounds=3, setups=1,
)

ENUM_BATCH = 50
ENUM_BATCHES = 2
QUERIES_PER_APPEND = 6


class Op(NamedTuple):
    kind: str        # "query" | "cursor" | "reverse" | "append"
    payload: object
    #: ingest: rows visible to this op (base + appended before it)
    visible: int = 0


class Skip(Exception):
    """The host cannot run this workload (reported, never a pass)."""


@dataclass
class Round:
    """One replay of the op list."""

    wall_ns: int
    latency_ns: list
    answers: list
    counters: dict                       # registry deltas over the round
    extras: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def signature(self) -> str:
        return signature(answer.sig for answer in self.answers)

    def of_kind(self, ops, kind: str):
        return [
            (self.latency_ns[i], self.answers[i])
            for i, op in enumerate(ops)
            if op.kind == kind
        ]


class Workload:
    """Base: one client, replayable op list, set-up once per run."""

    name = ""          # its one-line rationale is BENCHMARK.json's "why"
    clients = 1
    #: False when a round consumes its state and needs a fresh set-up
    replayable = True

    def __init__(self, scale: Scale, workdir):
        self.scale = scale
        self.workdir = workdir

    # -- overridden per workload ---------------------------------------
    def setup(self):
        raise NotImplementedError

    def make_ops(self, env, rng: random.Random) -> list[Op]:
        raise NotImplementedError

    def before(self, env, op: Op) -> None:
        """Untimed preparation of one op (cold cache)."""

    def perform(self, env, op: Op) -> stack.Answer:
        raise NotImplementedError

    def after_round(self, env, ops, rnd: Round) -> None:
        """Epilogue of a round, outside its wall and its op spans
        (ingest: close + recover)."""

    def checks(self, env, ops, rnd: Round, rng: random.Random):
        """Yield ``(label, got, expected)`` oracle comparisons."""
        raise NotImplementedError

    # -- shared ----------------------------------------------------------
    def sample(self, indices, rng: random.Random, limit="verify"):
        """The ops to oracle-check: all of them in smoke runs, a fixed-size
        sample at full scale (one brute-force pass over D100k costs as much
        as fifty queries)."""
        indices = list(indices)
        limit = getattr(self.scale, limit)
        if limit is None or len(indices) <= limit:
            return indices
        return sorted(rng.sample(indices, limit))

    def run_round(self, env, ops, tracer=None) -> Round:
        count = len(ops)
        latency = [0] * count
        answers = [stack.Answer(sig=("unanswered",))] * count
        errors: list = []
        before = env.counters()
        ticket = itertools.count()

        def client():
            while True:
                i = next(ticket)
                if i >= count:
                    return
                op = ops[i]
                try:
                    self.before(env, op)
                    started = CLOCK()
                    if tracer is None:
                        answer = self.perform(env, op)
                    else:
                        tracer.links[id(op.payload)] = i
                        with tracer.op(i, op.kind):
                            answer = self.perform(env, op)
                    latency[i] = CLOCK() - started
                    answers[i] = answer
                except Exception:  # an op that raises is a failed op
                    errors.append((i, traceback.format_exc()))
                    answers[i] = stack.Answer(sig=("error", i))

        started = CLOCK()
        if self.clients == 1:
            client()
        else:
            threads = [threading.Thread(target=client) for _ in range(self.clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        wall = CLOCK() - started
        after = env.counters()
        rnd = Round(
            wall_ns=wall,
            latency_ns=latency,
            answers=answers,
            counters={k: after[k] - before.get(k, 0) for k in after},
            errors=errors,
        )
        rnd.extras["space_amplification"] = env.device_bytes() / (
            env.num_rows() * stack.raw_row_bytes(env.schema)
        )
        return rnd


# ----------------------------------------------------------------------
class _CubeWorkload(Workload):
    """Shared by the workloads that run on the common dataset's cube."""

    serve_workers = 0

    def setup(self):
        return stack.CubeStack(
            stack.dataset(self.scale.tuples), serve_workers=self.serve_workers
        )

    def checks(self, env, ops, rnd, rng):
        for i in self.sample(range(len(ops)), rng):
            yield (
                f"op {i}",
                rnd.answers[i].sig,
                stack.oracle_topk(env.schema, env.rows, ops[i].payload),
            )


class TopkCold(_CubeWorkload):
    name = "topk_cold"

    def make_ops(self, env, rng):
        cells = stack.selection_cells(env.schema)
        picked = [cells[i % len(cells)] for i in range(self.scale.topk_ops)]
        rng.shuffle(picked)
        functions = stack.mixed_functions(env.schema, len(picked), rng)
        return [
            Op("query", stack.topk_query(cell, function))
            for cell, function in zip(picked, functions)
        ]

    def before(self, env, op):
        env.cold()

    def perform(self, env, op):
        return stack.topk_answer(env.executor.execute(op.payload))


def _distinct_queries(ops):
    """Index of the first op of each distinct query in a zipf stream."""
    seen, firsts = set(), []
    for i, op in enumerate(ops):
        key = repr(op.payload)
        if key not in seen:
            seen.add(key)
            firsts.append(i)
    return firsts


def _zipf_checks(self, env, ops, rnd, rng):
    """Oracle-check (a sample of) the stream's distinct queries."""
    for i in self.sample(_distinct_queries(ops), rng):
        yield (
            f"op {i}",
            rnd.answers[i].sig,
            stack.oracle_topk(env.schema, env.rows, ops[i].payload),
        )


class ServeHot(_CubeWorkload):
    name = "serve_hot"
    clients = 2
    serve_workers = 2

    def make_ops(self, env, rng):
        stream = stack.zipf_stream(env.schema, self.scale.serve_ops, rng)
        return [Op("query", query) for query in stream]

    def perform(self, env, op):
        return stack.topk_answer(env.service.submit(op.payload).result())

    checks = _zipf_checks


class _Sharded(Workload):
    shards = 0
    process = False
    ops_field = ""

    def setup(self):
        try:
            return stack.ShardStack(
                stack.dataset(self.scale.tuples), self.shards, self.process
            )
        except OSError as exc:
            if self.process:
                raise Skip(f"cannot start shard workers: {exc}") from exc
            raise

    def make_ops(self, env, rng):
        count = getattr(self.scale, self.ops_field)
        return [Op("query", q) for q in stack.zipf_stream(env.schema, count, rng)]

    def perform(self, env, op):
        return stack.topk_answer(env.service.submit(op.payload).result())

    checks = _zipf_checks


class ShardThread(_Sharded):
    name = "shard_thread"
    shards = 4
    ops_field = "shard_thread_ops"


class ShardProcess(_Sharded):
    name = "shard_process"
    shards = 2
    process = True
    ops_field = "shard_process_ops"


class EnumReverse(_CubeWorkload):
    name = "enum_reverse"

    def make_ops(self, env, rng):
        scale = self.scale
        cells = stack.fixed_cells(env.schema, scale.cursors + scale.reverses)
        functions = stack.mixed_functions(env.schema, scale.cursors, rng)
        ops = [
            Op("cursor", stack.topk_query(cell, function))
            for cell, function in zip(cells, functions)
        ]
        family = stack.reverse_family(env.schema)
        for cell in cells[scale.cursors:]:
            query = stack.reverse_query(
                env.executor, cell, family, rng.randrange(len(family))
            )
            if query is not None:
                ops.append(Op("reverse", query))
        rng.shuffle(ops)
        return ops

    def before(self, env, op):
        env.cold()

    def perform(self, env, op):
        if op.kind == "cursor":
            return stack.enumerate_answer(
                env.executor, op.payload, ENUM_BATCHES, ENUM_BATCH, CLOCK
            )
        return stack.reverse_answer(env.executor, op.payload)

    def checks(self, env, ops, rnd, rng):
        for kind in ("cursor", "reverse"):
            indices = [i for i, op in enumerate(ops) if op.kind == kind]
            limit = "verify" if kind == "cursor" else "verify_reverse"
            for i in self.sample(indices, rng, limit):
                query = ops[i].payload
                if kind == "cursor":
                    expected = stack.oracle_ranked(
                        env.schema, env.rows, query, ENUM_BATCHES * ENUM_BATCH
                    )
                    got = rnd.answers[i].sig
                else:
                    expected = stack.oracle_reverse(env.schema, env.rows, query)
                    got = rnd.answers[i].sig[0]
                yield f"{kind} op {i}", got, expected


class IngestMixed(Workload):
    name = "ingest_mixed"
    #: a round's appends change the cube, so every round sets up afresh
    replayable = False

    def setup(self):
        scale = self.scale
        return stack.IngestStack(
            stack.dataset(scale.ingest_base),
            self.workdir,
            compact_threshold=scale.ingest_batch * scale.ingest_appends,
        )

    def make_ops(self, env, rng):
        scale = self.scale
        appends = scale.ingest_cycles * scale.ingest_appends
        rows = stack.appended_rows(appends * scale.ingest_batch, rng.randrange(2**31))
        cells = stack.selection_cells(env.schema)
        rng.shuffle(cells)
        functions = stack.mixed_functions(
            env.schema, appends * QUERIES_PER_APPEND, rng
        )
        ops, visible = [], scale.ingest_base
        for a in range(appends):
            batch = rows[a * scale.ingest_batch:(a + 1) * scale.ingest_batch]
            ops.append(Op("append", batch, visible))
            visible += len(batch)
            for q in range(QUERIES_PER_APPEND):
                i = a * QUERIES_PER_APPEND + q
                query = stack.topk_query(cells[i % len(cells)], functions[i])
                ops.append(Op("query", query, visible))
        return ops

    def perform(self, env, op):
        if op.kind == "append":
            return env.append(op.payload)
        return stack.topk_answer(env.executor.execute(op.payload))

    def after_round(self, env, ops, rnd):
        rnd.extras["compactions"] = env.compactions()
        rnd.extras["wal_bytes"] = env.wal_bytes()
        started = CLOCK()
        table, executor = env.recover()
        rnd.extras["recover_ns"] = CLOCK() - started
        rnd.extras["recovered_rows"] = table.num_rows
        queries = [op for op in ops if op.kind == "query"]
        rnd.extras["recovered_answers"] = [
            (op.payload, stack.topk_answer(executor.execute(op.payload)).sig)
            for op in queries[-(self.scale.verify or len(queries)):]
        ]

    def checks(self, env, ops, rnd, rng):
        scale = self.scale
        per_cycle = scale.ingest_appends * (1 + QUERIES_PER_APPEND)
        # the last query of each cycle ran right after that cycle's compaction
        for cycle in range(scale.ingest_cycles):
            i = (cycle + 1) * per_cycle - 1
            yield (
                f"post-compaction op {i}",
                rnd.answers[i].sig,
                stack.oracle_topk(env.schema, env.rows[: ops[i].visible], ops[i].payload),
            )
        yield "recovered rows", rnd.extras["recovered_rows"], len(env.rows)
        yield "compaction cycles", rnd.extras["compactions"], scale.ingest_cycles
        for query, got in rnd.extras["recovered_answers"]:
            yield "after recover", got, stack.oracle_topk(env.schema, env.rows, query)


WORKLOADS = {
    cls.name: cls
    for cls in (TopkCold, ServeHot, ShardThread, ShardProcess, EnumReverse, IngestMixed)
}
