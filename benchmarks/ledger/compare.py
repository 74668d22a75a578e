"""``run.py compare A.json ... -- B.json ...``: two sets of ledgers against
each metric's declared bound.

Per (workload, end-to-end metric) it prints each side's median and
quartiles, the ratio of the medians with its base, and one verdict:

``within``      the change's median is no worse than the base's by more
                than the bound
``worse``       it is
``better``      every run of the change beats every run of the base, by
                more than the base's own spread — and only with ten runs a
                side: with three, two identical checkouts read "better" on
                this sandbox whenever a slow phase hits one side
``unresolved``  a side's own spread (inter-quartile distance over median)
                exceeds the bound, and the sides overlap: the instrument
                cannot tell (choosing-metrics, section 8)

Counts are not timed and must repeat exactly: between runs of one side
with one seed they have to be identical (a difference fails the command,
it is a broken counter, not noise), and between the sides any increase
above 1% reads ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartiles, spread

EXACT_TOLERANCE = 0.01
MIN_RUNS_TO_CLAIM = 10


def verdict(base, change, better: str, bound: float) -> str:
    """Classify ``change`` against ``base`` (lists of one value per run)."""
    _q1, base_median, _q3 = quartiles(base)
    _q1, change_median, _q3 = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change_median - base_median) / abs(base_median)
    if better == "lower":
        all_better = max(change) < min(base)
        all_worse = min(change) > max(base)
    else:
        all_better = min(change) > max(base)
        all_worse = max(change) < min(base)
    # too few runs cannot tell a gain from a quiet spell of the host
    may_claim = min(len(base), len(change)) >= MIN_RUNS_TO_CLAIM
    if max(spread(base), spread(change)) > bound:
        if all_better and may_claim:
            return "better"
        return "worse" if all_worse and worsening > bound else "unresolved"
    if worsening > bound:
        return "worse"
    if all_better and may_claim and -worsening > spread(base):
        return "better"
    return "within"


def _load(paths):
    return [json.loads(Path(path).read_text()) for path in paths]


def _values(ledgers, workload, section, metric):
    """``[(seed, value)]`` of one metric over the ledgers that have it."""
    out = []
    for ledger in ledgers:
        entry = ledger["workloads"].get(workload, {})
        part = "untraced" if section in ("sheet", "counts") else "traced"
        found = entry.get(part, {}).get(section, {}).get(metric)
        if isinstance(found, dict):
            found = found.get("value")
        if found is not None:
            out.append((ledger["seed"], found))
    return out


def _repeats_exactly(pairs) -> bool:
    """Do runs that share a seed agree to the last digit?"""
    by_seed: dict = {}
    for seed, value in pairs:
        by_seed.setdefault(seed, set()).add(value)
    return all(len(values) == 1 for values in by_seed.values())


def _side(values) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(base_ledgers, change_ledgers, sheet, inexact_counts, out=print) -> bool:
    """Print the comparison; True when nothing is worse or broken."""
    ok = True
    names = []
    for ledger in base_ledgers + change_ledgers:
        names.extend(n for n in ledger["workloads"] if n not in names)
    for workload in names:
        out(f"== {workload}")
        for ledger in base_ledgers + change_ledgers:
            status = ledger["workloads"].get(workload, {}).get("status", "missing")
            if status != "ok":
                ok = False
                out(f"  a run of seed {ledger['seed']} has no result: {status}")
        for metric in sheet:
            base = _values(base_ledgers, workload, "sheet", metric.name)
            change = _values(change_ledgers, workload, "sheet", metric.name)
            if not base or not change:
                continue
            a = [v for _s, v in base]
            b = [v for _s, v in change]
            if metric.bound is None:
                label = _exact(base, change, workload in inexact_counts)
            else:
                label = verdict(a, b, metric.better, metric.bound)
            ok = ok and label not in ("worse", "BROKEN")
            bound = "exact" if metric.bound is None else f"{metric.bound:.0%}"
            base_median = quartiles(a)[1]
            ratio = quartiles(b)[1] / base_median if base_median else float("nan")
            out(
                f"  {metric.name:<26} base {_side(a)}  change {_side(b)}  "
                f"change/base={ratio:.4f} (base {base_median:.5g} {metric.unit})  "
                f"{label} (bound {bound}, {metric.better} is better)"
            )
        if workload in inexact_counts:
            continue
        broken = []
        counts = set()
        for ledger in base_ledgers + change_ledgers:
            entry = ledger["workloads"].get(workload, {})
            counts.update(
                ("counts", key) for key in entry.get("untraced", {}).get("counts", {})
            )
            counts.update(
                ("metrics", key)
                for key, found in entry.get("traced", {}).get("metrics", {}).items()
                if found["unit"] == "count"
            )
        for section, key in sorted(counts):
            for side in (base_ledgers, change_ledgers):
                if not _repeats_exactly(_values(side, workload, section, key)):
                    broken.append(key)
        if broken:
            ok = False
            out(f"  BROKEN counts (differ between runs of one seed): {sorted(set(broken))}")
        else:
            out(f"  {len(counts)} per-round and per-layer counts repeat exactly "
                f"within each side")
    return ok


def _exact(base, change, tolerate_noise: bool) -> str:
    """Verdict for a count: identical, changed within 1%, or worse."""
    if not tolerate_noise and not (_repeats_exactly(base) and _repeats_exactly(change)):
        return "BROKEN"
    a = quartiles([v for _s, v in base])[1]
    b = quartiles([v for _s, v in change])[1]
    if a == b:
        return "identical"
    if a and (b - a) / a > EXACT_TOLERANCE:
        return "worse"
    if not a and b > 0:
        return "worse"
    return "changed"


def main(argv) -> int:
    if "--" not in argv:
        print("usage: run.py compare BASE.json ... -- CHANGE.json ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    base, change = argv[:split], argv[split + 1:]
    if not base or not change:
        print("compare needs at least one ledger on each side", file=sys.stderr)
        return 2
    from report import INEXACT_COUNTS, SHEET

    ok = compare(_load(base), _load(change), SHEET, INEXACT_COUNTS)
    print("compare: " + ("nothing worse" if ok else "REGRESSION OR BROKEN COUNTER"))
    return 0 if ok else 1
