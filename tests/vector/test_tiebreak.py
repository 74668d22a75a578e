"""Regression test for the tie-breaking contract under batched sorting.

The answer contract orders rows ascending by ``(score, tid)``; the k-th
place is decided toward the *smaller* tid.  ``topk_select`` implements
this with a batched sort, which is only correct if tid is genuinely the
secondary key (a plain argsort on scores alone would surface ties in
arbitrary order).  The executor's own tie tests live in
``tests/core/test_executor.py::TestTieBreaking``.
"""

import random

import numpy as np
import pytest

from repro.vector.kernels import topk_select


@pytest.mark.vector
def test_batched_sort_is_stable_on_ties():
    """``topk_select`` must secondary-sort by tid, not trust score order.

    Shuffled tids sharing one score must come back tid-ascending; a
    non-stable score-only argsort would return them in insertion order.
    """
    rng = random.Random(31)
    tids = rng.sample(range(500), 64)
    scores = np.full(64, 0.25)
    got = topk_select(scores, np.asarray(tids, dtype=np.int64), 64)
    assert got == [(0.25, tid) for tid in sorted(tids)]
    # truncated selection keeps the *smallest* tids of the tie group
    assert topk_select(scores, np.asarray(tids, dtype=np.int64), 5) == [
        (0.25, tid) for tid in sorted(tids)[:5]
    ]
    # mixed scores: score is primary, tid secondary within each group
    mixed_scores = np.asarray([0.2, 0.1, 0.2, 0.1], dtype=np.float64)
    mixed_tids = np.asarray([9, 7, 3, 1], dtype=np.int64)
    assert topk_select(mixed_scores, mixed_tids, None) == [
        (0.1, 1), (0.1, 7), (0.2, 3), (0.2, 9),
    ]
