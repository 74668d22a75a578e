"""Reverse top-k queries over the ranking cube (Chester et al.).

A forward query asks "which k tuples are best for this ranking
function?"; the reverse query asks "**for which ranking functions** is
this tuple among the best k?" — the monomial-weight-vector variant of
Chester et al.'s *Indexing Reverse Top-k Queries*, generalized to any
family of convex ranking functions the cube can bound.

The cube answers it with the same geometry as the forward search, one
function at a time: the target's exact score ``t`` is a fixed threshold,
and a tuple *precedes* the target iff ``(score, tid) < (t, target_tid)``
under the usual tie-breaking order.  The Lemma-1 frontier visits blocks
in ascending bound order, so counting stops as soon as

* ``k`` predecessors were found (the target is out — early *reject*), or
* ``best_unseen > t`` (no unexamined block can contain a predecessor —
  early *accept*; note the *non-strict* continue condition
  ``best_unseen <= t``: a block whose bound ties ``t`` may still hold an
  equal-score, smaller-tid predecessor).

Blocks whose corner bound exceeds ``t`` are therefore never fetched —
the pruning ``tests/properties/test_reverse_equivalence.py`` bounds
(``test_reverse_gate_on_qualifying_targets``).  The delta
store carries no bounds and is counted unconditionally first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..obs.tracing import Tracer, maybe_span
from ..ranking.functions import LinearFunction, RankingFunction
from ..relational.query import TopKQuery, all_integers, is_integer
from ..storage.device import StorageError
from .cube import CubeError
from .executor import (
    ExecutorTrace,
    ProgressiveSearch,
    QueryAbortedError,
    RankingCubeExecutor,
)

__all__ = [
    "ReverseTopKQuery",
    "ReverseTopKResult",
    "count_preceding",
    "reverse_topk",
    "simplex_grid_family",
]


@dataclass(frozen=True)
class ReverseTopKQuery:
    """For which of ``functions`` does tuple ``tid`` rank in the top-k?

    ``selections`` scope the competition exactly like a forward query's
    selections: only rows matching them compete, and a target that does
    not match them qualifies for no function at all.
    """

    tid: int
    k: int
    selections: Mapping[str, int]
    functions: tuple[RankingFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "selections", dict(self.selections))
        if not (is_integer(self.tid) and all_integers(self.k, self.selections)):
            raise CubeError(
                f"tid, k and selection values must be integers, got "
                f"tid={self.tid!r}, k={self.k!r}, selections={self.selections!r}"
            )
        if self.tid < 0:
            raise CubeError(f"tid must be >= 0, got {self.tid}")
        if self.k < 1:
            raise CubeError(f"k must be >= 1, got {self.k}")
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise CubeError("reverse top-k needs at least one function")


@dataclass
class ReverseTopKResult:
    """Answer plus the work accounting of one reverse top-k query.

    ``qualifying`` holds indices into the query's ``functions`` tuple,
    ascending; ``target_scores[i]`` is the target's exact score under
    ``functions[i]`` (always computed, even for non-qualifying
    functions).  ``target_matches`` is False when the target row fails
    the query selections — then nothing qualifies by definition.
    """

    qualifying: list[int] = field(default_factory=list)
    target_scores: list[float] = field(default_factory=list)
    target_matches: bool = True
    blocks_accessed: int = 0
    candidates_examined: int = 0
    tuples_examined: int = 0


def count_preceding(
    executor: RankingCubeExecutor,
    query: TopKQuery,
    t_score: float,
    tie_tid: int,
    trace: ExecutorTrace | None = None,
):
    """Count matching tuples with ``(score, tid) < (t_score, tie_tid)``,
    capped at ``query.k``.

    ``query.ranking`` is the candidate function and ``query.k`` the cap:
    once that many predecessors are seen the target provably misses the
    top-k and counting stops.  ``tie_tid`` is the tid threshold for
    score ties — shard-local callers pass the target's *rank position*
    within their tid order rather than the tid itself (any tuple at an
    earlier position precedes on ties).  Returns ``(count,
    search_result)`` where the result carries the usual counters.
    Storage faults propagate as raw ``StorageError``; callers wrap.
    """
    search = ProgressiveSearch(executor, query, trace, block_k=None)
    cap = query.k
    preceding = 0
    for score, tid in search.delta_rows():
        if (score, tid) < (t_score, tie_tid):
            preceding += 1
    while (
        preceding < cap
        and not search.exhausted
        and search.best_unseen <= t_score
    ):
        for score, tid in search.step():
            if (score, tid) < (t_score, tie_tid):
                preceding += 1
    return preceding, search.result


def reverse_topk(
    executor: RankingCubeExecutor,
    query: ReverseTopKQuery,
    trace: ExecutorTrace | None = None,
    tracer: Tracer | None = None,
) -> ReverseTopKResult:
    """Answer a reverse top-k query against one (unsharded) executor.

    Needs the executor's ``relation`` for the target point fetch.  Emits
    a ``reverse_query`` span with one ``reverse_function`` child per
    candidate function when ``tracer`` is given.  Storage faults abort
    the whole query as a typed
    :class:`~repro.core.executor.QueryAbortedError`.
    """
    relation = executor.relation
    if relation is None:
        raise CubeError("reverse top-k requires the executor's relation")
    if not 0 <= query.tid < relation.num_rows:
        raise CubeError(
            f"target tid {query.tid} outside relation "
            f"[0, {relation.num_rows})"
        )
    schema = relation.schema
    attrs = dict(
        tid=query.tid,
        k=query.k,
        selections=dict(sorted(query.selections.items())),
        functions=len(query.functions),
    )
    with maybe_span(tracer, "reverse_query", **attrs) as qspan:
        result = ReverseTopKResult()
        try:
            target = relation.fetch_by_tid(query.tid)
            matches = all(
                target[schema.position(name)] == value
                for name, value in query.selections.items()
            )
            result.target_matches = matches
            for index, fn in enumerate(query.functions):
                t_score = fn.score(
                    [target[schema.position(d)] for d in fn.dims]
                )
                result.target_scores.append(t_score)
                if not matches:
                    continue
                with maybe_span(
                    tracer, "reverse_function",
                    index=index, ranking=",".join(fn.dims),
                ) as fspan:
                    forward = TopKQuery(query.k, query.selections, fn)
                    preceding, sub = count_preceding(
                        executor, forward, t_score, query.tid, trace
                    )
                    result.blocks_accessed += sub.blocks_accessed
                    result.candidates_examined += sub.candidates_examined
                    result.tuples_examined += sub.tuples_examined
                    in_topk = preceding < query.k
                    if in_topk:
                        result.qualifying.append(index)
                    if fspan is not None:
                        fspan.add("preceding", preceding)
                        fspan.add("blocks_accessed", sub.blocks_accessed)
                        fspan.add(
                            "candidates_examined", sub.candidates_examined
                        )
                        fspan.add("in_topk", int(in_topk))
        except StorageError as exc:
            if isinstance(exc, QueryAbortedError):
                raise
            raise QueryAbortedError(
                f"reverse top-k aborted after "
                f"{result.blocks_accessed} block reads: {exc}",
                partial_rows=[],
                blocks_accessed=result.blocks_accessed,
                cause=exc,
            ) from exc
        if qspan is not None:
            qspan.add("qualifying", len(result.qualifying))
            qspan.add("blocks_accessed", result.blocks_accessed)
            qspan.add("candidates_examined", result.candidates_examined)
    return result


def simplex_grid_family(
    dims: Sequence[str], steps: int
) -> tuple[LinearFunction, ...]:
    """The monomial linear weight family: every non-negative integer
    composition of ``steps`` over ``dims``, normalized onto the weight
    simplex — ``steps + 1`` functions for two dims, C(steps+d-1, d-1)
    in general.  The canonical candidate set for reverse top-k over
    linear ranking (each vector is one hypothetical "user preference").
    """
    if steps < 1:
        raise CubeError(f"steps must be >= 1, got {steps}")
    dims = list(dims)
    if not dims:
        raise CubeError("simplex_grid_family needs at least one dim")
    functions = []
    for composition in _compositions(steps, len(dims)):
        weights = [part / steps for part in composition]
        functions.append(LinearFunction(dims, weights))
    return tuple(functions)


def _compositions(total: int, parts: int):
    """All non-negative integer tuples of length ``parts`` summing to
    ``total``, in lexicographic order (deterministic family order)."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
