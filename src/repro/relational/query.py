"""Top-k query representation.

A :class:`TopKQuery` is the paper's SQL form (Section 2)::

    SELECT TOP k FROM R WHERE A1 = a1 AND ... Ai = ai ORDER BY f(N1..Nj)

i.e. a conjunction of equality selections over categorical dimensions and a
convex ranking function over real-valued dimensions.  Results are
:class:`QueryResult` rows carrying tid, score, and (optionally) the full
tuple.
"""

from __future__ import annotations

import heapq
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from ..ranking.functions import RankingFunction
from .schema import Schema, SchemaError


class QueryError(Exception):
    """Raised for queries inconsistent with the target schema."""


def is_integer(value) -> bool:
    """An integral number that is not a ``bool`` (numpy integers count)."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )


def all_integers(k, selections: Mapping) -> bool:
    """Are ``k`` and every selection value integers?"""
    return is_integer(k) and all(map(is_integer, selections.values()))


@dataclass(frozen=True)
class TopKQuery:
    """An immutable top-k query.

    Parameters
    ----------
    k:
        Number of results requested (``k >= 1``).
    selections:
        Mapping of selection-attribute name to required (encoded) value.
        May be empty: a pure ranking query over the whole relation.
    ranking:
        Convex ranking function; its ``dims`` must be ranking attributes of
        the relation the query runs against.
    projection:
        Extra attribute names to materialize for the result rows; ``None``
        returns tids and scores only (the cube answers those without
        touching the base relation).
    """

    k: int
    selections: Mapping[str, int]
    ranking: RankingFunction
    projection: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "selections", dict(self.selections))
        if not all_integers(self.k, self.selections):
            raise QueryError(
                f"k and selection values must be integers, got k={self.k!r}, "
                f"selections={self.selections!r}"
            )
        if self.k < 1:
            raise QueryError(f"k must be >= 1, got {self.k}")
        overlap = set(self.selections) & set(self.ranking.dims)
        if overlap:
            raise QueryError(f"attributes used for both selection and ranking: {overlap}")

    @property
    def selection_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.selections))

    @property
    def ranking_names(self) -> tuple[str, ...]:
        return self.ranking.dims

    @property
    def num_selections(self) -> int:
        return len(self.selections)

    def validate_against(self, schema: Schema) -> None:
        """Raise :class:`QueryError` if the query does not fit ``schema``."""
        for name, value in self.selections.items():
            try:
                attr = schema.attribute(name)
            except SchemaError as exc:
                raise QueryError(str(exc)) from exc
            if not attr.is_selection:
                raise QueryError(f"{name!r} is not a selection attribute")
            assert attr.cardinality is not None
            if not 0 <= int(value) < attr.cardinality:
                raise QueryError(
                    f"value {value} out of domain [0, {attr.cardinality}) for {name!r}"
                )
        for name in self.ranking.dims:
            try:
                attr = schema.attribute(name)
            except SchemaError as exc:
                raise QueryError(str(exc)) from exc
            if not attr.is_ranking:
                raise QueryError(f"{name!r} is not a ranking attribute")
        for name in self.projection or ():
            if name not in schema:
                raise QueryError(f"projection attribute {name!r} not in schema")

    def matches(self, schema: Schema, row: Sequence) -> bool:
        """Does a full tuple satisfy the selection conjunction?"""
        return all(
            row[schema.position(name)] == value
            for name, value in self.selections.items()
        )

    def score_row(self, schema: Schema, row: Sequence) -> float:
        """Evaluate the ranking function on a full tuple."""
        point = [row[schema.position(name)] for name in self.ranking.dims]
        return self.ranking.score(point)


@dataclass(frozen=True)
class ResultRow:
    """One row of a top-k answer."""

    tid: int
    score: float
    values: tuple | None = None

    def __lt__(self, other: "ResultRow") -> bool:
        # Deterministic total order: by score, ties by tid.
        return (self.score, self.tid) < (other.score, other.tid)


def push_topk(topk: list[tuple[float, int]], k: int, score: float, tid: int) -> None:
    """Offer one scored tuple to a top-k max-heap.

    Entries are ``(-score, -tid)`` so the heap root is the *worst* kept
    tuple — largest score, and among equal scores the largest tid.  A new
    tuple displaces the root when it is strictly better under the same
    order, so ties on the k-th score break toward the smaller tid: the
    retained set and the presented order (see :func:`rows_from_heap`)
    agree on tid-ascending tie-breaking, the contract documented on
    :class:`QueryResult`.  Every executor and baseline keeps its top-k
    through this one function; the result is insertion-order independent.
    """
    entry = (-score, -tid)
    if len(topk) < k:
        heapq.heappush(topk, entry)
    elif entry > topk[0]:
        heapq.heapreplace(topk, entry)


def rows_from_heap(topk: list[tuple[float, int]]) -> list[ResultRow]:
    """The heap's tuples as result rows, best ``(score, tid)`` first."""
    return [
        ResultRow(tid=-neg_tid, score=-neg_score)
        for neg_score, neg_tid in sorted(topk, reverse=True)
    ]


@dataclass(frozen=True)
class ShardIO:
    """One shard's share of a scatter-gathered query's execution cost.

    Attached to :attr:`QueryResult.shard_io` by the sharded serving path;
    ``device_reads`` is the shard device's physical page-read delta over
    the query, so hot-shard attribution survives caching layers that make
    ``blocks_accessed`` an undercount of real I/O pressure.
    """

    blocks_accessed: int = 0
    candidates_examined: int = 0
    tuples_examined: int = 0
    device_reads: int = 0


@dataclass
class QueryResult:
    """Ordered top-k answer plus execution counters.

    **Ordering contract:** rows are sorted ascending by ``(score, tid)``.
    Ties on score break toward the *smaller* tid, both in presentation
    order and in which tuples survive when more than ``k`` tuples share
    the k-th best score — every executor in this repository honours the
    same rule, so answers are deterministic and comparable across access
    methods and across serial/concurrent execution.

    The same contract governs *enumeration cursors*
    (:class:`~repro.core.anyk.AnyKCursor` and the sharded
    ``ShardedAnyKCursor``): rows stream in ascending ``(score, tid)``
    order at every depth past ``k``, identically on the executor and in
    thread/process shard modes — an any-k
    cursor drained to depth ``k`` yields exactly this result's ``rows``.

    ``tuples_examined`` counts tuples whose ranking values were actually
    evaluated, the paper's notion of "seen" tuples; ``blocks_accessed``
    counts *actual* block fetches issued by the executor — pseudo-block
    and base-block reads that cost I/O (the meter on the shared device
    records the physical truth).  ``candidates_examined`` counts frontier
    candidates popped by search-style executors, including ones answered
    from a buffer or skipped as empty cells with zero new I/O; it is the
    logical-work counter that ``blocks_accessed`` used to conflate.
    """

    rows: list[ResultRow] = field(default_factory=list)
    tuples_examined: int = 0
    blocks_accessed: int = 0
    candidates_examined: int = 0
    #: Per-shard attribution (shard id -> ShardIO); None outside sharded
    #: serving.  Excluded from equality-by-rows comparisons by convention:
    #: equivalence suites compare ``rows``, not the whole dataclass.
    shard_io: dict[int, ShardIO] | None = None

    @property
    def tids(self) -> list[int]:
        return [row.tid for row in self.rows]

    @property
    def scores(self) -> list[float]:
        return [row.score for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)
