import compare
from compare import verdict
from report import Metric


def runs(centre, count=10, step=0.5):
    """``count`` runs scattered a little around ``centre``."""
    return [centre + step * (i - count // 2) for i in range(count)]


def test_within_worse_better():
    base = runs(100.0)
    assert verdict(base, runs(104.0), "lower", 0.10) == "within"
    assert verdict(base, runs(115.0), "lower", 0.10) == "worse"
    assert verdict(base, runs(80.0), "lower", 0.10) == "better"
    # higher is better: the same numbers read the other way round
    assert verdict(base, runs(115.0), "higher", 0.10) == "better"
    assert verdict(base, runs(80.0), "higher", 0.10) == "worse"


def test_fewer_than_ten_runs_a_side_never_claim_a_gain():
    assert verdict([100.0], [50.0], "lower", 0.10) == "within"
    assert verdict(runs(100.0, 3), runs(50.0), "lower", 0.10) == "within"
    assert verdict(runs(100.0), runs(50.0, 9), "lower", 0.10) == "within"
    assert verdict([100.0], [120.0], "lower", 0.10) == "worse"


def test_improvement_inside_the_base_spread_is_not_better():
    base = runs(100.0, step=1.5)             # 92.5 .. 106, quartiles 7.6% apart
    assert verdict(base, runs(92.0, step=0.01), "lower", 0.10) == "within"
    assert verdict(base, runs(85.0, step=0.01), "lower", 0.10) == "better"


def test_spread_beyond_the_bound_is_unresolved_unless_separated():
    noisy = runs(100.0, step=6.0)
    assert verdict(noisy, runs(105.0), "lower", 0.10) == "unresolved"
    assert verdict(noisy, runs(40.0), "lower", 0.10) == "better"
    assert verdict(noisy, runs(40.0, 3), "lower", 0.10) == "unresolved"
    assert verdict(noisy, runs(200.0), "lower", 0.10) == "worse"


def _ledger(seed, pages, qps, count=7):
    return {
        "seed": seed,
        "workloads": {
            "topk_cold": {
                "status": "ok",
                "untraced": {
                    "sheet": {
                        "query_per_s": {"value": qps, "samples": 4},
                        "pages_read_per_query": {"value": pages, "samples": 576},
                    },
                    "counts": {"storage.device.reads": count},
                },
                "traced": {"metrics": {
                    "core.blocks.neighbor_calls_per_query": {"value": 3.0, "unit": "count"},
                    "core.blocks.self_us_per_query": {"value": float(qps), "unit": "us"},
                }},
            }
        },
    }


SHEET = (
    Metric("query_per_s", "1/s", "higher", 0.10, None),
    Metric("pages_read_per_query", "count", "lower", None, None),
)


def _run(base, change):
    lines = []
    ok = compare.compare(base, change, SHEET, (), out=lines.append)
    return ok, "\n".join(lines)


def test_same_code_same_seed_agrees():
    base = [_ledger(1, 21.5, 330.0), _ledger(1, 21.5, 335.0), _ledger(1, 21.5, 328.0)]
    change = [_ledger(1, 21.5, 331.0), _ledger(1, 21.5, 329.0), _ledger(1, 21.5, 336.0)]
    ok, text = _run(base, change)
    assert ok
    assert "within (bound 10%" in text and "identical (bound exact" in text
    assert "counts repeat exactly" in text


def test_a_count_that_differs_between_runs_of_one_seed_fails():
    base = [_ledger(1, 21.5, 330.0), _ledger(1, 21.6, 330.0)]
    ok, text = _run(base, [_ledger(1, 21.5, 330.0)])
    assert not ok and "BROKEN" in text
    base = [_ledger(1, 21.5, 330.0, count=7), _ledger(1, 21.5, 330.0, count=8)]
    ok, text = _run(base, [_ledger(1, 21.5, 330.0)])
    assert not ok and "BROKEN counts" in text


def test_counts_of_different_seeds_may_differ_and_an_increase_is_worse():
    ok, text = _run([_ledger(1, 21.5, 330.0), _ledger(2, 22.0, 330.0)],
                    [_ledger(1, 21.5, 330.0), _ledger(2, 22.0, 330.0)])
    assert ok
    ok, text = _run([_ledger(1, 21.5, 330.0)], [_ledger(1, 23.0, 330.0)])
    assert not ok and "worse (bound exact" in text
    ok, text = _run([_ledger(1, 21.5, 330.0)], [_ledger(1, 21.6, 290.0)])
    assert not ok and "changed" in text and "worse (bound 10%" in text


def test_a_run_without_a_result_is_not_a_pass():
    failed = _ledger(1, 21.5, 330.0)
    failed["workloads"]["topk_cold"] = {"status": "failed(timed out after 180s)"}
    ok, text = _run([_ledger(1, 21.5, 330.0)], [failed])
    assert not ok and "timed out" in text
