"""Shrinkage-blended cost model: analytic prior, observed posterior.

The analytic estimates in :mod:`repro.core.estimate` are coarse by design
(independence, uniform spread) and were demonstrably miscalibrated before
this PR's fixes — so the router never trusts them outright.  Instead each
``(query shape, path)`` pair keeps a running mean of *observed* weighted
page cost, and the decision cost is the classic shrinkage blend

    blended = (n * observed_mean + n0 * analytic) / (n + n0)

where ``n`` is the number of observations and ``n0`` the prior strength
(how many observations the analytic model is "worth").  With no samples
the blend *is* the analytic estimate; as samples accumulate it converges
to the observed mean at rate ``n / (n + n0)`` — the standard conjugate
normal-mean posterior, and the same scheme histogram-feedback optimizers
(e.g. LEO) use to discount a calibrated-but-wrong model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .signature import QueryShape

#: Default prior strength: the analytic estimate counts as this many
#: observations.  Small enough that a few real measurements dominate,
#: large enough that one noisy probe cannot flip a decision by itself.
DEFAULT_PRIOR_STRENGTH = 4.0


@dataclass
class PathObservation:
    """Running cost totals for one ``(shape, path)`` pair."""

    samples: int = 0
    total_io: float = 0.0
    total_wall_s: float = 0.0

    @property
    def mean_io(self) -> float:
        return self.total_io / self.samples if self.samples else 0.0

    @property
    def mean_wall_s(self) -> float:
        return self.total_wall_s / self.samples if self.samples else 0.0


@dataclass
class CostBook:
    """Thread-safe observation store + shrinkage blend."""

    prior_strength: float = DEFAULT_PRIOR_STRENGTH
    _observations: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def __post_init__(self) -> None:
        if self.prior_strength <= 0:
            raise ValueError(
                f"prior_strength must be positive, got {self.prior_strength}"
            )

    # ------------------------------------------------------------------
    def record(
        self, shape: QueryShape, path: str, io_cost: float, wall_s: float
    ) -> None:
        """Fold one executed query's observed cost into the book."""
        with self._lock:
            obs = self._observations.setdefault((shape, path), PathObservation())
            obs.samples += 1
            obs.total_io += float(io_cost)
            obs.total_wall_s += float(wall_s)

    def forget(self, path: str) -> None:
        """Drop every observation of ``path``, for every shape."""
        with self._lock:
            for key in [key for key in self._observations if key[1] == path]:
                del self._observations[key]

    def samples(self, shape: QueryShape, path: str) -> int:
        with self._lock:
            obs = self._observations.get((shape, path))
            return obs.samples if obs is not None else 0

    def observation(self, shape: QueryShape, path: str) -> PathObservation:
        with self._lock:
            obs = self._observations.get((shape, path))
            return (
                PathObservation(obs.samples, obs.total_io, obs.total_wall_s)
                if obs is not None
                else PathObservation()
            )

    def blended(self, shape: QueryShape, path: str, analytic_io: float) -> float:
        """Decision cost: observations shrunk toward the analytic prior."""
        with self._lock:
            obs = self._observations.get((shape, path))
            n = obs.samples if obs is not None else 0
            total = obs.total_io if obs is not None else 0.0
        return (total + self.prior_strength * float(analytic_io)) / (
            n + self.prior_strength
        )

    @property
    def size(self) -> int:
        with self._lock:
            return len(self._observations)
