"""Arithmetic of the ledger: percentiles, medians of rounds, spreads, hashes.

Nothing here imports the system under test; the unit tests in ``tests/``
pin every rule the README states.
"""

from __future__ import annotations

import hashlib
import resource
import statistics

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics section 1).
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float):
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``.

    Returns ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples
    lie beyond the rank: a tail read from a handful of points is noise,
    and the ledger prints ``n/a`` for it.  The median is exempt (it has
    half the sample on either side by construction).
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    n = len(samples)
    if n == 0:
        return None
    rank = min(n - 1, int(n * q / 100.0))
    if q != 50 and n - 1 - rank < MIN_SAMPLES_BEYOND:
        return None
    return sorted(samples)[rank]


def best_per_op(rounds):
    """Each op's least latency over the rounds that replayed it.

    ``rounds`` holds one equally long latency list per round.  The sandbox
    only ever *adds* time to an op (a neighbour's burst, a page fault, a
    collection), in bursts that last seconds, so the minimum over replays
    is the estimate of what the code costs; a median over rounds still
    moves by 5% between runs here, the minimum by 2%.
    """
    if not rounds:
        raise ValueError("no measured round")
    return [min(samples) for samples in zip(*rounds)]


def best_rate(per_round):
    """The least disturbed round's rate (see :func:`best_per_op`)."""
    if not per_round:
        raise ValueError("no measured round")
    return max(per_round)


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def signature(answers) -> str:
    """Order-sensitive hash of one round's answers.

    ``repr`` of floats round-trips exactly, so two rounds hash equal only
    if every ``(tid, score)`` agrees bit for bit.
    """
    digest = hashlib.sha256()
    for answer in answers:
        digest.update(repr(answer).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Linux reports ``ru_maxrss`` in KiB.  Shard workers are children, so
    process mode would otherwise hide most of its memory.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def ratio(numerator, denominator) -> float:
    """``numerator / denominator`` with an empty denominator reading 0."""
    return numerator / denominator if denominator else 0.0
