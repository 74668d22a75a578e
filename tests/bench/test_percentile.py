"""Latency quantiles are the nearest rank (``ServiceStats``)."""

import random

import pytest

from repro.serve import QueryRecord, ServiceStats


def stats_of(latencies):
    return ServiceStats(
        [QueryRecord(latency, 0, 0, 0, 0, 0, 0, 0, 0) for latency in latencies]
    )


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
    assert stats_of(sample).latency_percentile(fraction) == expected


def test_percentile_of_nothing_is_zero():
    assert ServiceStats().latency_percentile(0.5) == 0.0
