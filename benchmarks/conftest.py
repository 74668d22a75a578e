"""Shared configuration for the per-figure benchmarks.

Every test in this directory uses the ``benchmark`` fixture, so the whole
suite runs under ``pytest benchmarks/ --benchmark-only``.  Each file:

1. regenerates one paper figure's series via :mod:`repro.bench.experiments`
   (at a bench-friendly scale — override with ``REPRO_BENCH_TUPLES`` and
   ``REPRO_BENCH_QUERIES``),
2. asserts the *shape* the paper reports (who wins, rough factors),
3. benchmarks the figure's characteristic code path.

The full tables behind each figure are regenerated by
``python -m repro.bench`` and recorded in EXPERIMENTS.md; the exact page
counts at smoke size are pinned in ``tests/bench/test_experiments.py``.
"""

import os

import pytest

#: Dataset size used by the experiments inside benchmarks (scaled down
#: from the paper's 3M tuples; see DESIGN.md §5).
BENCH_TUPLES = int(os.environ.get("REPRO_BENCH_TUPLES", "20000"))
#: Queries averaged per series point.
BENCH_QUERIES = int(os.environ.get("REPRO_BENCH_QUERIES", "3"))


@pytest.fixture(scope="session")
def bench_tuples():
    return BENCH_TUPLES


@pytest.fixture(scope="session")
def bench_queries():
    return BENCH_QUERIES


def emit(result, metric="pages_read"):
    """Attach the regenerated series to the test report (visible with -s)."""
    print()
    print(result.format_table(metric))
