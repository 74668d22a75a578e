"""Brute-force oracles for differential testing of every query scenario.

Each oracle answers a query by scanning the raw rows with the same
:class:`~repro.relational.query.TopKQuery` scoring/matching helpers the
row executor uses — identical float operations in identical order — so
exact (bitwise) equality against the cube executors is the expected
outcome, not an approximation.  The property suites, the ported gate
tests, and the sharded differential tests all share these definitions;
there is deliberately exactly one statement of what "correct" means per
scenario.

Ordering contract (shared with the executors, documented on
:class:`~repro.relational.query.QueryResult`): results ascend by
``(score, tid)`` — ties on score break toward the smaller tid.
"""

from __future__ import annotations

from typing import Sequence

from ..relational.query import ResultRow, TopKQuery

__all__ = [
    "brute_force_ranked",
    "brute_force_reverse_topk",
    "brute_force_rows",
    "brute_force_topk",
]


def _scored_pairs(schema, rows, query: TopKQuery) -> list[tuple[float, int]]:
    """All matching rows as ``(score, tid)`` pairs in certified order."""
    return sorted(
        (query.score_row(schema, row), tid)
        for tid, row in enumerate(rows)
        if query.matches(schema, row)
    )


def brute_force_topk(schema, rows, query: TopKQuery) -> list[tuple[float, int]]:
    """Top-k oracle: the first ``query.k`` ``(score, tid)`` pairs.

    Drop-in replacement for the ad-hoc ``brute_force`` helpers the early
    test suites carried; returns bare pairs because most call sites
    compare against ``[(r.score, r.tid) for r in result.rows]``.
    """
    return _scored_pairs(schema, rows, query)[: query.k]


def brute_force_ranked(
    schema, rows, query: TopKQuery, depth: int | None = None
) -> list[ResultRow]:
    """Any-k oracle: the full certified ranking, optionally truncated.

    ``depth=None`` ranks every matching row — this is what an exhausted
    :class:`~repro.core.anyk.AnyKCursor` must have emitted, in order.
    ``query.k`` is ignored here; enumeration runs past k by design.
    """
    ordered = _scored_pairs(schema, rows, query)
    if depth is not None:
        ordered = ordered[:depth]
    return [ResultRow(tid=tid, score=score) for score, tid in ordered]


def brute_force_rows(schema, rows, query: TopKQuery) -> list[ResultRow]:
    """Top-k oracle returning full ``ResultRow`` dataclasses."""
    return [
        ResultRow(tid=tid, score=score)
        for score, tid in brute_force_topk(schema, rows, query)
    ]


def brute_force_reverse_topk(schema, rows, query) -> list[int]:
    """Reverse top-k oracle: indices of the qualifying ranking functions.

    ``query`` is a :class:`~repro.core.reverse.ReverseTopKQuery` (duck
    typed: ``tid``, ``k``, ``selections``, ``functions``).  Function ``i``
    qualifies iff the target row matches the selections and fewer than
    ``k`` other matching rows precede it under the ``(score, tid)``
    order for ``functions[i]`` — i.e. the target would appear in that
    function's top-k result.
    """
    target = rows[query.tid]
    if not _matches(schema, target, query.selections):
        return []
    qualifying = []
    for index, fn in enumerate(query.functions):
        t_score = fn.score([target[schema.position(d)] for d in fn.dims])
        preceding = 0
        for tid, row in enumerate(rows):
            if tid == query.tid or not _matches(schema, row, query.selections):
                continue
            score = fn.score([row[schema.position(d)] for d in fn.dims])
            if (score, tid) < (t_score, query.tid):
                preceding += 1
        if preceding < query.k:
            qualifying.append(index)
    return qualifying


def _matches(schema, row: Sequence, selections) -> bool:
    return all(
        row[schema.position(name)] == value
        for name, value in selections.items()
    )
