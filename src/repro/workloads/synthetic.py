"""Synthetic data generation (Section 5.1.1).

The paper's synthetic datasets are parameterized by S (selection
dimensions), R (ranking dimensions), T (tuples) and C (cardinality of each
selection dimension); defaults there are S=3 (cube experiments) / 12
(fragment experiments), R=2, T=3M, C=10.  We expose the same knobs plus
value-distribution choices (uniform / zipf / gaussian / correlated) so
skew-sensitivity can be explored, and return data ready for
:meth:`Database.load_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..relational.database import Database
from ..relational.schema import Schema, ranking_attr, selection_attr
from ..relational.table import Table


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset.

    ``selection_distribution`` / ``ranking_distribution`` choose how values
    are drawn:

    * selection: ``"uniform"`` or ``"zipf"`` (skewed category popularity),
    * ranking: ``"uniform"``, ``"gaussian"`` (clustered mid-space) or
      ``"correlated"`` (dimensions positively correlated, the hard case for
      independence assumptions).
    """

    num_selection_dims: int = 3
    num_ranking_dims: int = 2
    num_tuples: int = 10_000
    cardinality: int = 10
    selection_distribution: str = "uniform"
    ranking_distribution: str = "uniform"
    zipf_skew: float = 1.2
    seed: int = 13

    def __post_init__(self) -> None:
        if self.num_selection_dims < 0:
            raise ValueError("num_selection_dims must be >= 0")
        if self.num_ranking_dims < 1:
            raise ValueError("num_ranking_dims must be >= 1")
        if self.num_tuples < 1:
            raise ValueError("num_tuples must be >= 1")
        if self.cardinality < 1:
            raise ValueError("cardinality must be >= 1")
        if self.selection_distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown selection distribution {self.selection_distribution!r}")
        if self.ranking_distribution not in ("uniform", "gaussian", "correlated"):
            raise ValueError(f"unknown ranking distribution {self.ranking_distribution!r}")

    @property
    def selection_names(self) -> tuple[str, ...]:
        return tuple(f"a{i}" for i in range(1, self.num_selection_dims + 1))

    @property
    def ranking_names(self) -> tuple[str, ...]:
        return tuple(f"n{i}" for i in range(1, self.num_ranking_dims + 1))

    def schema(self) -> Schema:
        return Schema.of(
            [selection_attr(name, self.cardinality) for name in self.selection_names]
            + [ranking_attr(name) for name in self.ranking_names]
        )


@dataclass
class SyntheticDataset:
    """Generated rows plus their schema and spec."""

    spec: SyntheticSpec
    schema: Schema
    rows: list[tuple] = field(repr=False, default_factory=list)

    def load_into(self, db: Database, name: str = "R") -> Table:
        """Load into a database and return the table."""
        return db.load_table(name, self.schema, self.rows)


def generate(spec: SyntheticSpec) -> SyntheticDataset:
    """Generate a dataset according to ``spec`` (deterministic per seed)."""
    rows = _generate_rows(spec, np.random.default_rng(spec.seed), spec.num_tuples)
    return SyntheticDataset(spec=spec, schema=spec.schema(), rows=rows)


def _generate_rows(
    spec: SyntheticSpec, rng: np.random.Generator, count: int
) -> list[tuple]:
    """``count`` rows from one RNG stream (column draws in fixed order)."""
    columns: list[np.ndarray] = []
    for _ in range(spec.num_selection_dims):
        columns.append(_selection_column(spec, rng, count))
    ranking = _ranking_columns(spec, rng, count)
    columns.extend(ranking)
    return [
        tuple(
            int(col[i]) if j < spec.num_selection_dims else float(col[i])
            for j, col in enumerate(columns)
        )
        for i in range(count)
    ]


def _selection_column(
    spec: SyntheticSpec, rng: np.random.Generator, count: int
) -> np.ndarray:
    if spec.selection_distribution == "uniform":
        return rng.integers(0, spec.cardinality, size=count)
    # zipf: rank-skewed popularity over the fixed domain
    ranks = np.arange(1, spec.cardinality + 1, dtype=float)
    weights = ranks ** (-spec.zipf_skew)
    weights /= weights.sum()
    return rng.choice(spec.cardinality, size=count, p=weights)


def _ranking_columns(
    spec: SyntheticSpec, rng: np.random.Generator, count: int
) -> list[np.ndarray]:
    shape = (count, spec.num_ranking_dims)
    if spec.ranking_distribution == "uniform":
        data = rng.random(shape)
    elif spec.ranking_distribution == "gaussian":
        data = np.clip(rng.normal(0.5, 0.15, size=shape), 0.0, 1.0)
    else:  # correlated
        base = rng.random(count)
        noise = rng.normal(0.0, 0.1, size=shape)
        data = np.clip(base[:, None] + noise, 0.0, 1.0)
    return [data[:, j] for j in range(spec.num_ranking_dims)]
