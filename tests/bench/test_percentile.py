"""The bench harness's latency quantile is the nearest rank."""

import random

import pytest

from repro.bench.serve import _percentile


@pytest.mark.parametrize("fraction", [0.0, 0.5, 0.95, 1.0])
@pytest.mark.parametrize("size", range(1, 21))
def test_percentile_is_the_nearest_rank(size, fraction):
    """The smallest value with at least ``fraction`` of the sample at or
    below it (the minimum for ``fraction`` 0)."""
    sample = random.Random(size).sample(range(1, size + 1), size)
    expected = min(
        value for value in sample
        if sum(v <= value for v in sample) >= fraction * size
    )
    assert _percentile(sample, fraction) == expected


def test_percentile_of_nothing_is_zero():
    assert _percentile([], 0.5) == 0.0
