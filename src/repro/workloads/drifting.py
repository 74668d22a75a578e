"""Drifting workloads: phased query streams and shifted-row appends.

The adaptive-routing gate (``TestDriftingStream`` in
``tests/route/test_router.py``) needs a workload whose *shape* changes
mid-stream — that is what an adaptive planner exists for and what any
single static configuration loses to.
Two generators cover the two kinds of drift:

* :class:`DriftingQueryStream` — a phased, zipf-skewed query stream.
  Each :class:`WorkloadPhase` names which selection-dimension sets are
  hot and how selective they are; within a phase, queries draw their
  selection set from the phase's sets and their values zipf-skewed, so
  the cuboid advisor's window sees a stable
  regime that then *rotates* at the phase boundary.
* :func:`shifted_rows` — appended tuples whose ranking values are pushed
  into a narrow high band, the canonical distribution drift that
  unbalances an equi-depth grid (new data piles into the top bins) and
  should trip :class:`~repro.route.drift.DriftDetector`.

Everything is seeded and deterministic: the gate replays the exact same
stream for the adaptive and every static configuration.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..ranking.functions import LinearFunction
from ..relational.query import TopKQuery
from ..relational.schema import Schema


@dataclass(frozen=True)
class WorkloadPhase:
    """One stable regime of a drifting query stream.

    Parameters
    ----------
    selection_sets:
        The selection-dimension combinations queries in this phase use,
        e.g. ``(("a1",), ("a1", "a2"))``.  Draws cycle deterministically
        (query ``i`` uses set ``i mod len(sets)``) so every set gets a
        fixed share regardless of phase length.
    queries:
        How many queries the phase emits.
    k:
        Top-k depth for the phase's queries.
    zipf_s:
        Skew of the per-dimension value draw: value ``v`` is drawn with
        weight ``1 / (v + 1)**zipf_s``.  ``0`` is uniform; ``>= 1`` makes
        a few values hot — hot values repeat query shapes, which is what
        lets observed costs accumulate.
    """

    selection_sets: tuple = ()
    queries: int = 50
    k: int = 10
    zipf_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.selection_sets:
            raise ValueError("a phase needs at least one selection set")
        if self.queries < 1:
            raise ValueError("queries must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")


@dataclass
class DriftingQueryStream:
    """A deterministic phased query stream over ``schema``.

    Ranking is a balanced linear function over the first two ranking
    dimensions (the paper's default query family); selection values draw
    zipf-skewed per the active phase.
    """

    schema: Schema
    phases: Sequence[WorkloadPhase]
    seed: int = 211
    num_ranking_dims: int = 2
    _weights_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("need at least one phase")
        for phase in self.phases:
            for dims in phase.selection_sets:
                for dim in dims:
                    if dim not in self.schema.selection_names:
                        raise ValueError(f"unknown selection dimension {dim!r}")
        if self.num_ranking_dims > len(self.schema.ranking_names):
            raise ValueError("not enough ranking dimensions in schema")

    def _zipf_value(self, rng: random.Random, cardinality: int, s: float) -> int:
        if s == 0:
            return rng.randrange(cardinality)
        key = (cardinality, s)
        weights = self._weights_cache.get(key)
        if weights is None:
            weights = [1.0 / (v + 1) ** s for v in range(cardinality)]
            self._weights_cache[key] = weights
        return rng.choices(range(cardinality), weights=weights, k=1)[0]

    def __iter__(self) -> Iterator[TopKQuery]:
        rng = random.Random(self.seed)
        rank_dims = list(self.schema.ranking_names)[: self.num_ranking_dims]
        ranking = LinearFunction(rank_dims, [1.0] * len(rank_dims))
        for phase in self.phases:
            sets = phase.selection_sets or ((),)
            for i in range(phase.queries):
                dims = sets[i % len(sets)]
                selections = {}
                for dim in dims:
                    cardinality = self.schema.attribute(dim).cardinality
                    assert cardinality is not None
                    selections[dim] = self._zipf_value(
                        rng, cardinality, phase.zipf_s
                    )
                yield TopKQuery(phase.k, selections, ranking)


def shifted_rows(
    schema: Schema,
    count: int,
    seed: int = 977,
    low: float = 0.85,
    high: float = 1.0,
) -> list[tuple]:
    """Appended rows whose ranking values sit in a narrow high band.

    Selection values stay uniform (the categorical marginals do not
    drift); ranking values draw uniformly from ``[low, high)`` instead of
    ``[0, 1)``, concentrating the appended mass in the top equi-depth
    bins — the drift :func:`~repro.route.drift.repartition_cube` exists
    to repair.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if not low < high:
        raise ValueError("need low < high")
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        row = []
        for attribute in schema.attributes:
            if attribute.is_selection:
                assert attribute.cardinality is not None
                row.append(rng.randrange(attribute.cardinality))
            else:
                row.append(low + (high - low) * rng.random())
        rows.append(tuple(row))
    return rows
