#!/usr/bin/env python3
"""The ledger: one end-to-end benchmark with per-layer attribution.

Three ways in (see README.md):

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this process — the form ``BENCHMARK.json`` names.
    ``--trace 0`` measures the end-to-end metrics with nothing installed;
    ``--trace 1`` runs the traced pass and reports the per-layer table.
    The last line of standard output is one JSON object.

``run.py run [--smoke] [--seed N] [--seconds S] --out FILE``
    Every workload, each in a freshly spawned child (untraced, then
    traced), merged into one ledger file and printed as one sheet.

``run.py compare A.json ... -- B.json ...``
    Two sets of ledger files against each metric's declared bound.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Everything a run writes (WAL, snapshots, shard spill) lands here, inside
#: the checkout, and is removed when the run ends.
WORK_ROOT = HERE.parents[1] / ".ledger_work"
CHILD_TIMEOUT_S = 180
#: A run that cannot execute on this host exits with this code and a
#: ``skipped(<reason>)`` line; it is never reported as a pass.
EXIT_FAILED, EXIT_SKIPPED = 1, 3
TRACED_ROUNDS = 2
MAX_ROUNDS = 50


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _confine(cpus) -> None:
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


class _Session:
    """Set-up bookkeeping shared by the untraced and the traced run.

    Set-up runs on every CPU the process may use (builds, and the shard
    workers spawned there inherit the full mask); rounds run with this
    process — clients, service threads, merge loop — confined to one CPU.
    Python threads take turns under the GIL anyway, and left on two cores
    they fight over it: identical thread-mode runs measured 70-130
    queries/s unconfined and repeat within 2% confined (README, "Method").
    """

    def __init__(self, workload, tracer=None, probe_list=()):
        from probes import Summary

        self.workload = workload
        self.tracer = tracer
        self.probe_list = probe_list
        self.env = None
        self.dirty = False
        self.setup_s: list[float] = []
        self.cpus = (
            os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        )
        #: folded spans of set-ups, of traced rounds' ops, and of traced
        #: rounds' epilogues (kept apart: only ops count against op time)
        self.setup_spans = Summary()
        self.traced_setups = 0
        self.spans = Summary()
        self.epilogue_spans = Summary()

    def setup(self) -> None:
        """(Re)build the workload's stack, timed; traced when a tracer is
        given, so build/save/spawn spans land in ``setup_spans``."""
        self.close()
        gc.collect()
        _confine(self.cpus)
        tracer = self.tracer
        was_installed = tracer is not None and tracer.installed
        if tracer is not None and not was_installed:
            tracer.install(self.probe_list)
        try:
            started = time.perf_counter()
            self.env = self.workload.setup()
            self.setup_s.append(time.perf_counter() - started)
        finally:
            if tracer is not None:
                self.setup_spans.merge(tracer.fold())
                self.traced_setups += 1
                if not was_installed:
                    tracer.uninstall()
        if self.cpus:
            _confine({min(self.cpus)})
        self.dirty = False

    def round(self, ops, traced: bool = False, keep: bool = True):
        """One round and its epilogue; ``keep=False`` discards a traced
        round's spans (the traced warm-up)."""
        if self.dirty and not self.workload.replayable:
            self.setup()
        self.dirty = True
        tracer = self.tracer if traced else None
        rnd = self.workload.run_round(self.env, ops, tracer)
        if tracer is not None:
            folded = tracer.fold()
            if keep:
                self.spans.merge(folded)
        self.workload.after_round(self.env, ops, rnd)
        if tracer is not None:
            folded = tracer.fold()
            if keep:
                self.epilogue_spans.merge(folded)
        return rnd

    def close(self) -> None:
        if self.env is not None:
            self.env.close()
            self.env = None


def _round_failures(name, rounds):
    """Op errors, answer drift and count drift across rounds, as
    ``(checks made, [failure text])``.  Answers must equal the first
    round's in every round; counts must repeat from the second round on
    (the first also pays lazy set-up: flushing the build's dirty pages,
    filling the serving caches)."""
    from report import INEXACT_COUNTS

    failures = []
    checks = 0
    reference = rounds[0].signature()
    for number, rnd in enumerate(rounds, 1):
        for i, trace_text in rnd.errors:
            failures.append(f"round {number} op {i} raised:\n{trace_text}")
        checks += 1
        if rnd.signature() != reference:
            failures.append(f"round {number}: answers differ from round 1's")
        if number < 3 or name in INEXACT_COUNTS:
            continue
        for key, value in rnd.counters.items():
            checks += 1
            if value != rounds[1].counters.get(key):
                failures.append(
                    f"round {number}: count {key} = {value}, "
                    f"round 2 had {rounds[1].counters.get(key)}"
                )
    return checks, failures


def measure(args) -> int:
    """Contract entry point; returns the process exit code."""
    try:
        import report
        import workloads
    except ImportError as exc:
        print(f"ledger: cannot load the system under test: {exc}", file=sys.stderr)
        return EXIT_FAILED
    if args.workload not in workloads.WORKLOADS:
        print(f"ledger: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_FAILED
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # the process-mode service spills shard snapshots to a temp directory
    os.environ["TMPDIR"] = str(workdir)
    tempfile.tempdir = None
    workload = workloads.WORKLOADS[args.workload](scale, workdir)
    try:
        if args.trace:
            outcome = _traced(workload, args, report)
        else:
            outcome = _untraced(workload, args, report)
    except workloads.Skip as skip:
        print(f"skipped({skip})")
        return EXIT_SKIPPED
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for failure in outcome["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    if args.detail:
        Path(args.detail).write_text(json.dumps(outcome, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": outcome["metrics"],
    }))
    return EXIT_FAILED if outcome["failures"] else 0


def _declared(section: str, report) -> dict:
    return {m["name"]: m for m in report.benchmark_json()[section]}


def _contract_payload(values: dict, declared: dict) -> dict:
    """``name -> {value, unit}`` for the driver: every declared name,
    nothing else (a value too thin to report is left out, and the driver
    refuses the run)."""
    if set(values) != set(declared):
        raise SystemExit(
            f"BENCHMARK.json and the runner disagree on metric names: "
            f"{sorted(set(values) ^ set(declared))}"
        )
    return {
        name: {"value": value, "unit": declared[name]["unit"]}
        for name, value in values.items()
        if value is not None
    }


def _untraced(workload, args, report) -> dict:
    scale = workload.scale
    session = _Session(workload)
    try:
        for _ in range(scale.setups if workload.replayable else 1):
            session.setup()
        ops = workload.make_ops(
            session.env, random.Random(f"{workload.name}:{args.seed}")
        )
        gc.collect()
        gc.freeze()
        # no separate warm-up: every statistic is a best-of-rounds, which
        # the first (cache-filling) round never is
        rounds = []
        started = time.perf_counter()
        while len(rounds) < MAX_ROUNDS and (
            len(rounds) < scale.min_rounds
            or time.perf_counter() - started < args.seconds
        ):
            rounds.append(session.round(ops))
        checks, failures = _round_failures(workload.name, rounds)
        for label, got, expected in workload.checks(
            session.env, ops, rounds[-1], random.Random(0)
        ):
            checks += 1
            if got != expected:
                failures.append(f"{label}: got {got!r}, oracle says {expected!r}")
    finally:
        session.close()
    attempted = len(ops) * len(rounds) + checks
    contract = report.contract_metrics(
        ops, rounds, session.setup_s, workload.clients
    )
    sheet = report.sheet_metrics(
        workload.name, ops, rounds, contract, attempted, len(failures),
        workload.clients,
    )
    catalogue = {m.name: m for m in report.SHEET}
    report.print_table(
        f"{workload.name}: end to end ({len(rounds)} rounds of {len(ops)} ops, "
        f"seed {args.seed})",
        [
            (name, v.value, catalogue[name].unit,
             f"n={v.samples} bound={_bound_text(catalogue[name].bound)}")
            for name, v in sheet.items()
        ],
    )
    declared = _declared("end_to_end", report)
    report.print_table(
        f"{workload.name}: contract metrics",
        [
            (name, v.value, declared[name]["unit"],
             f"n={v.samples} bound={_bound_text(declared[name]['bound'])}")
            for name, v in contract.items()
        ],
    )
    return {
        "workload": workload.name,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_wall_s": [rnd.wall_ns / 1e9 for rnd in rounds],
        "ops_per_round": len(ops),
        "attempted": attempted,
        "failures": failures,
        "sheet": {k: {"value": v.value, "samples": v.samples} for k, v in sheet.items()},
        "counts": rounds[-1].counters,
        "metrics": _contract_payload(
            {k: v.value for k, v in contract.items()}, declared
        ),
    }


def _traced(workload, args, report) -> dict:
    import probes
    import stack

    tracer = probes.Tracer(scopes=probes.SCOPES)
    session = _Session(workload, tracer, probes.declared(stack))
    try:
        session.setup()
        ops = workload.make_ops(
            session.env, random.Random(f"{workload.name}:{args.seed}")
        )
        gc.collect()
        gc.freeze()
        session.tracer = None                     # untraced: nothing installed
        untraced = [session.round(ops), session.round(ops)]
        session.tracer = tracer
        tracer.install(session.probe_list)
        try:
            session.round(ops, traced=True, keep=False)     # traced warm-up
            rounds = [session.round(ops, traced=True) for _ in range(TRACED_ROUNDS)]
        finally:
            tracer.uninstall()
        env = session.env
        static = {
            "cube_bytes": env.cube_bytes(),
            "num_rows": env.num_rows(),
            "grid_blocks": env.grid_blocks(),
            "raw_row_bytes": stack.raw_row_bytes(env.schema),
        }
        clock = time.perf_counter_ns
        micro = stack.kernel_micro(env.base_table(), env.schema, clock)
        micro["serve.wire.roundtrip_us_per_frame"] = stack.wire_micro(clock)
        unsharded = None
        if isinstance(env, stack.ShardStack):
            unsharded = stack.unsharded_candidates(env, [op.payload for op in ops])
    finally:
        session.close()
    checks, failures = _round_failures(workload.name, untraced + rounds)
    layers = report.layer_metrics(report.TracedRun(
        name=workload.name, ops=ops, rounds=rounds, spans=session.spans,
        epilogue_spans=session.epilogue_spans,
        setup_spans=session.setup_spans, setups=session.traced_setups,
        untraced_wall_ns=min(r.wall_ns for r in untraced), micro=micro, static=static,
        unsharded_candidates=unsharded,
    ))
    declared = _declared("per_layer", report)
    report.print_table(
        f"{workload.name}: per layer ({TRACED_ROUNDS} traced rounds of "
        f"{len(ops)} ops, seed {args.seed})",
        [(name, layers.get(name), entry["unit"], "") for name, entry in declared.items()],
    )
    return {
        "workload": workload.name,
        "seed": args.seed,
        "attempted": len(ops) * (len(rounds) + len(untraced)) + checks,
        "failures": failures,
        "metrics": _contract_payload(layers, declared),
    }


def _bound_text(bound) -> str:
    return "exact" if bound is None else f"{bound:.0%}"


# ----------------------------------------------------------------------
# the whole ledger, one child per workload
# ----------------------------------------------------------------------
def _run_child(command):
    """One workload child run to its end, or ``None`` when it ran out of
    time.  The child leads a process group of its own, so one that has to
    be killed (time-out, or this process interrupted) takes its shard
    workers with it: the whole group is killed and watched until empty."""
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT_S)
        return subprocess.CompletedProcess(command, child.returncode, out, err)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if child.poll() is None:
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.communicate()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(
                group == child.pid for _, _, group in _proc_table()
            ):
                time.sleep(0.05)


def run_ledger(args) -> int:
    import report

    names = [w["name"] for w in report.benchmark_json()["workloads"]]
    # the children's full results come back through files in here
    inbox = WORK_ROOT / f"run-{os.getpid()}"
    inbox.mkdir(parents=True, exist_ok=True)
    ledger = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "workloads": {},
    }
    failed = False
    for name in names:
        entry = ledger["workloads"][name] = {}
        for trace in (0, 1):
            detail = inbox / f"{name}-{trace}.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--detail", str(detail),
            ] + (["--smoke"] if args.smoke else [])
            done = _run_child(command)
            if done is None:
                entry["status"] = f"failed(timed out after {CHILD_TIMEOUT_S}s)"
                failed = True
                break
            lines = done.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
            sys.stderr.write(done.stderr)
            if done.returncode == EXIT_SKIPPED:
                entry["status"] = lines[-1] if lines else "skipped(unknown)"
                failed = True
                break
            if not detail.exists():
                entry["status"] = f"failed(exit {done.returncode}, no result)"
                failed = True
                break
            outcome = json.loads(detail.read_text())
            detail.unlink()
            entry["traced" if trace else "untraced"] = outcome
            entry["status"] = "failed" if outcome["failures"] else "ok"
            if outcome["failures"]:
                failed = True
                break
        print(f"== {name}: {entry['status']}")
    shutil.rmtree(inbox, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run's directory is still there
    Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True))
    print(f"ledger written to {args.out}")
    return EXIT_FAILED if failed else 0


# ----------------------------------------------------------------------
# leaving nothing behind
# ----------------------------------------------------------------------
def _proc_table():
    """``(pid, parent pid, process group)`` of every process in ``/proc``
    (nothing where there is no ``/proc``)."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended between the listing and the read
        # "pid (comm) state ppid pgrp ...": comm may hold blanks and brackets
        fields = stat.rpartition(")")[2].split()
        yield int(entry), int(fields[1]), int(fields[2])


def _stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``ShardedQueryService.close()`` has already joined the shard workers.
    What outlives it is multiprocessing's resource tracker, started with
    the first spawned worker: it ends only when every copy of the write
    end of its pipe is closed, that is a moment *after* this process has
    exited, and a caller that looks for leftovers at that moment finds it.
    So its pipe is closed and the tracker waited for here.  A worker still
    there (set-up interrupted before the service existed to be closed)
    holds a copy of that pipe, so it is killed and waited for first.
    """
    module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(module, "_resource_tracker", None)
    me = os.getpid()

    def kill_and_reap(spare=None) -> None:
        for pid, parent, _ in list(_proc_table()):
            if parent != me or pid == spare:
                continue
            try:
                os.kill(pid, signal.SIGKILL)    # the tracker ignores SIGTERM
            except ProcessLookupError:
                pass  # ended already; still to be reaped
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # reaped by whoever started it

    kill_and_reap(spare=getattr(tracker, "_pid", None))
    if tracker is not None:
        try:
            tracker._stop()                     # close its pipe, waitpid
        except (AttributeError, OSError):
            pass  # no such hook in this Python: it is killed just below
    kill_and_reap()


def _on_sigterm(signum, frame):
    # as an exception, so the ``finally`` blocks above close the service,
    # remove the scratch directory and stop the children
    raise SystemExit(128 + signum)


def _fix_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED`` pinned, unless the caller set one.

    String hashing is randomised per process, and with it the collision
    pattern of every attribute and registry dict on the hot path: the
    same code on the same inputs runs 300-350 queries/s depending on the
    hash seed alone, more than any bound here.  A fixed seed makes runs
    comparable; an explicit ``PYTHONHASHSEED=n`` in the environment is
    respected, so a claim can be re-checked under other layouts.
    """
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare

        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="2k tuples, 1+2 rounds: exercises every path in seconds")
    if argv[:1] == ["run"]:
        parser.add_argument("--out", required=True)
        args = parser.parse_args(argv[1:])
        if args.seconds is None:
            args.seconds = 0.0 if args.smoke else 10.0
        return run_ledger(args)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full result as JSON here")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else 10.0
    return measure(args)


# Process-mode shard workers are spawned: they re-import this file as
# ``__mp_main__``, and a driver without this guard would recurse.
if __name__ == "__main__":
    _fix_hash_seed()
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        code = main()
        sys.stdout.flush()
    finally:
        _stop_children()
    sys.exit(code)
