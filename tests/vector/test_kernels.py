"""Unit tests for the columnar layout and batched kernels.

The kernels' contract is *bitwise* agreement with the row executor's
scalar arithmetic — every comparison here is ``==`` on floats, never
``approx``.
"""

import random

import numpy as np
import pytest

from repro.ranking.functions import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    descending,
)
from repro.vector.kernels import (
    decode_block,
    eval_scores,
    gather_tids,
    topk_select,
)


def random_records(n, dims, seed):
    rng = random.Random(seed)
    return [
        (rng.randrange(10_000), tuple(rng.uniform(-3.0, 3.0) for _ in range(dims)))
        for _ in range(n)
    ]


FUNCTIONS = [
    LinearFunction(("n1", "n2"), (0.4, 0.6)),
    LinearFunction(("n1", "n2"), (-1.3, 0.7), offset=2.5),
    LpDistance(("n1", "n2"), (0.3, 0.8), p=2.0),
    LpDistance(("n1", "n2"), (0.5, 0.1), p=1.0),
    LpDistance(("n1", "n2"), (0.2, 0.9), p=1.7),  # scalar-fallback exponent
    QuadraticForm(("n1", "n2"), [[2.0, 0.5], [0.5, 1.0]], center=(0.4, 0.6)),
    # The descending case keeps the id it had when descending order was a
    # NegatedFunction wrapper; its repr is now a plain LinearFunction's.
    pytest.param(
        descending(LinearFunction(("n1", "n2"), (0.9, 0.2))),
        id="NegatedFunction(descending(LinearFunction))",
    ),
    ConvexFunction(
        ("n1", "n2"),
        lambda x, y: max(x, y),
        subgradient=lambda x, y: (1.0, 0.0) if x >= y else (0.0, 1.0),
        name="max",
    ),
]


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------
class TestDecodeRoundTrip:
    def test_round_trip_identity(self):
        records = random_records(37, 3, seed=1)
        assert decode_block(records, 3).to_records() == records

    def test_empty_block_keeps_shape(self):
        block = decode_block([], 2)
        assert len(block) == 0
        assert block.num_dims == 2
        assert block.to_records() == []


# ----------------------------------------------------------------------
# eval_scores vs scalar eval
# ----------------------------------------------------------------------
class TestEvalBatchAgreement:
    @pytest.mark.parametrize("fn", FUNCTIONS, ids=repr)
    def test_bitwise_agreement_with_scalar(self, fn):
        records = random_records(50, 2, seed=3)
        block = decode_block(records, 2)
        batch = list(eval_scores(fn, block, (0, 1)))
        scalar = [fn.score(values) for _tid, values in records]
        assert batch == scalar  # exact equality: no tolerance
        assert not any(s != s for s in batch)  # NaN-free

    def test_agreement_on_projected_dims(self):
        fn = LinearFunction(("n3", "n1"), (1.5, -0.5))
        records = random_records(40, 3, seed=4)
        block = decode_block(records, 3)
        batch = list(eval_scores(fn, block, (2, 0)))
        scalar = [fn.score((values[2], values[0])) for _tid, values in records]
        assert batch == scalar

    def test_agreement_with_ties_and_negative_weights(self):
        fn = LinearFunction(("n1", "n2"), (-2.0, 0.0))
        records = [(i, (0.5, float(i % 3))) for i in range(30)]
        block = decode_block(records, 2)
        assert list(eval_scores(fn, block, (0, 1))) == [-1.0] * 30

    def test_empty_block(self):
        fn = LinearFunction(("n1", "n2"), (1.0, 1.0))
        block = decode_block([], 2)
        assert list(eval_scores(fn, block, (0, 1))) == []


# ----------------------------------------------------------------------
# row-filtered gathers
# ----------------------------------------------------------------------
class TestFilteredGather:
    def test_filtered_scores_match_scalar(self):
        fn = LpDistance(("n1", "n2"), (0.0, 0.0), p=2.0)
        records = random_records(45, 2, seed=8)
        block = decode_block(records, 2)
        indices = np.nonzero(block.tids % 2 == 0)[0]
        batch = list(eval_scores(fn, block, (0, 1), indices))
        scalar = [fn.score(v) for tid, v in records if tid % 2 == 0]
        assert batch == scalar
        assert list(gather_tids(block, indices)) == [
            tid for tid, _v in records if tid % 2 == 0
        ]


# ----------------------------------------------------------------------
# topk_select
# ----------------------------------------------------------------------
class TestTopkSelect:
    def test_orders_by_score_then_tid(self):
        records = [(5, (0.2,)), (1, (0.1,)), (9, (0.1,)), (3, (0.3,))]
        block = decode_block(records, 1)
        fn = LinearFunction(("n1",), (1.0,))
        scores = eval_scores(fn, block, (0,))
        assert topk_select(scores, block.tids, None) == [
            (0.1, 1), (0.1, 9), (0.2, 5), (0.3, 3),
        ]

    def test_truncates_to_k(self):
        records = random_records(80, 1, seed=10)
        block = decode_block(records, 1)
        fn = LinearFunction(("n1",), (1.0,))
        scores = eval_scores(fn, block, (0,))
        full = sorted((fn.score(v), tid) for tid, v in records)
        assert topk_select(scores, block.tids, 7) == full[:7]

    def test_k_larger_than_block(self):
        records = random_records(5, 1, seed=11)
        block = decode_block(records, 1)
        fn = LinearFunction(("n1",), (1.0,))
        scores = eval_scores(fn, block, (0,))
        assert len(topk_select(scores, block.tids, 50)) == 5

    def test_empty(self):
        block = decode_block([], 1)
        fn = LinearFunction(("n1",), (1.0,))
        assert topk_select(eval_scores(fn, block, (0,)), block.tids, 3) == []


# ----------------------------------------------------------------------
# NumPy layout and sort specifics
# ----------------------------------------------------------------------
@pytest.mark.vector
class TestNumpyBackend:
    def test_columns_are_contiguous_float64(self):
        block = decode_block(random_records(20, 3, seed=12), 3)
        assert block.tids.dtype == np.int64
        for col in block.columns:
            assert col.dtype == np.float64
            assert col.flags["C_CONTIGUOUS"]

    def test_lexsort_is_the_stable_tie_order(self):
        """The kernel's lexsort and a plain sorted() agree exactly."""
        rng = random.Random(13)
        scores = [rng.choice([0.1, 0.2, 0.3]) for _ in range(200)]
        tids = rng.sample(range(1000), 200)
        records = [(tid, (s,)) for tid, s in zip(tids, scores)]
        block = decode_block(records, 1)
        fn = LinearFunction(("n1",), (1.0,))
        via_numpy = topk_select(eval_scores(fn, block, (0,)), block.tids, 10)
        assert via_numpy == sorted(zip(scores, tids))[:10]
