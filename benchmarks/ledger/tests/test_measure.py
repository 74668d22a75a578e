import statistics

import pytest

from measure import (
    MIN_SAMPLES_BEYOND,
    best_per_op,
    best_rate,
    percentile,
    quartiles,
    signature,
    spread,
)


def test_median_is_nearest_rank_and_always_reported():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([4, 1, 3, 2], 50) == 3      # upper of the middle pair
    assert percentile([7], 50) == 7
    assert percentile([], 50) is None


def test_tail_needs_ten_samples_beyond_it():
    # p95 of n samples sits at rank int(0.95 n); it is reported only when
    # at least MIN_SAMPLES_BEYOND samples lie above that rank
    enough = list(range(220))                     # rank 209, 10 beyond
    assert percentile(enough, 95) == 209
    short = list(range(219))                      # rank 208, 10 beyond ...
    assert percentile(short, 95) == 208
    assert percentile(list(range(200)), 95) is None   # rank 190, 9 beyond
    assert percentile(list(range(1000)), 99) is None  # rank 990, 9 beyond
    assert percentile(list(range(1100)), 99) == 1089  # 10 beyond
    assert MIN_SAMPLES_BEYOND == 10


def test_percentile_ignores_input_order_and_rejects_bad_q():
    assert percentile(list(reversed(range(400))), 95) == 380
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 100)
    with pytest.raises(ValueError):
        percentile([1, 2, 3], 0)


def test_best_of_rounds():
    # three rounds replay the same four ops; a burst slowed round 2 throughout
    rounds = [[2.0, 5.0, 3.0, 9.0], [2.6, 6.5, 3.9, 11.7], [2.1, 4.9, 3.3, 9.0]]
    assert best_per_op(rounds) == [2.0, 4.9, 3.0, 9.0]
    assert best_per_op([[7.0, 8.0]]) == [7.0, 8.0]
    assert best_rate([322.0, 350.0, 285.0]) == 350.0
    with pytest.raises(ValueError):
        best_per_op([])
    with pytest.raises(ValueError):
        best_rate([])


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, q2, q3)
    assert spread(values) == (q3 - q1) / q2
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([3.0]) == 0.0


def test_signature_is_bit_exact_and_order_sensitive():
    a = [((1, 0.1 + 0.2),), ((2, 0.5),)]
    assert signature(a) == signature([((1, 0.1 + 0.2),), ((2, 0.5),)])
    assert signature(a) != signature([((1, 0.3),), ((2, 0.5),)])   # one ulp apart
    assert signature(a) != signature(list(reversed(a)))
