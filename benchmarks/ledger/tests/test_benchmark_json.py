"""BENCHMARK.json against the contract's limits and against the runner."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import report
import workloads

LEDGER = Path(__file__).resolve().parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def doc():
    return report.benchmark_json()


def test_keys_and_limits(doc):
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert doc["paths"] == ["benchmarks/ledger"]
    assert doc["command"][-1].startswith(doc["paths"][0] + "/")
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert report.BENCHMARK_JSON.stat().st_size <= 64 * 1024


def test_names_units_and_bounds(doc):
    names = []
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_workloads_match_the_runner(doc):
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_runner_prints_exactly_the_declared_names(doc, trace, section):
    """One smoke run per mode: the last line is the contract's object and
    its metric names are BENCHMARK.json's.  Smoke rounds are too short for
    a p95 (fewer than ten samples beyond it), so that one name may be
    left out at this scale — and only that one."""
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "enum_reverse",
         "--seed", "3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in doc[section]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert set(declared) - set(printed) <= {"op_p95_ms"}
    assert all(declared[name] == unit for name, unit in printed.items())
    for name in printed:
        assert f"  {name} " in done.stdout        # and printed by name above it


def test_sheet_names_are_well_formed():
    assert all(NAME.fullmatch(m.name) and UNIT.fullmatch(m.unit) for m in report.SHEET)
    assert len({m.name for m in report.SHEET}) == len(report.SHEET) == 15


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_a_process_mode_run_leaves_no_process(trace):
    """The instant ``shard_process`` exits, nothing it started is alive —
    not a shard worker, and not multiprocessing's resource tracker, which
    by itself would end only a moment after its parent.  The run leads a
    session of its own, so whatever it started is in its process group."""
    import run

    child = subprocess.Popen(
        [sys.executable, str(LEDGER / "run.py"), "--workload", "shard_process",
         "--seed", "3", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    out, err = child.communicate(timeout=120)
    left = [pid for pid, _, group in run._proc_table() if group == child.pid]
    assert child.returncode == 0, err
    assert json.loads(out.splitlines()[-1])["correct"] is True
    assert left == []


def test_timings_are_best_ofs():
    """One client: rate and percentiles from each op's best replay (a burst
    costs one replay of one op).  Two clients: latencies overlap and an
    op's best replay is the one where it ran alone, so rate and percentiles
    are the best whole round's.  Set-up: the quickest of the run's."""
    ops = [workloads.Op("query", None)] * 2
    answer = workloads.stack.Answer(sig=(), blocks=3)

    def round_(wall_ms, latencies_ms):
        return workloads.Round(
            wall_ns=int(wall_ms * 1e6), latency_ns=[ms * 1e6 for ms in latencies_ms],
            answers=[answer] * 2, counters={}, extras={"space_amplification": 1.0},
        )

    rounds = [round_(50, [10, 30]), round_(40, [20, 15])]
    one = report.contract_metrics(ops, rounds, [3.0, 2.0, 2.5], clients=1)
    two = report.contract_metrics(ops, rounds, [3.0, 2.0, 2.5], clients=2)
    assert one["op_per_s"].value == pytest.approx(2 / 0.025)     # 10 ms + 15 ms
    assert two["op_per_s"].value == pytest.approx(2 / 0.040)
    assert one["setup_s"] == report.Value(2.0, 3)
    assert one["op_p50_ms"].value == pytest.approx(15.0)
    assert two["op_p50_ms"].value == pytest.approx(20.0)   # round 2's, not 15
