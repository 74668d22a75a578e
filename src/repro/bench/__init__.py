"""Benchmark harness and per-figure experiment definitions."""

from .experiments import ALL_EXPERIMENTS
from .harness import (
    METHOD_BASELINE,
    METHOD_RANKING_CUBE,
    METHOD_RANKING_FRAGMENTS,
    METHOD_RANK_MAPPING,
    Environment,
    ExperimentResult,
    MethodMetrics,
    SeriesPoint,
    build_environment,
    sweep,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "Environment",
    "ExperimentResult",
    "METHOD_BASELINE",
    "METHOD_RANKING_CUBE",
    "METHOD_RANKING_FRAGMENTS",
    "METHOD_RANK_MAPPING",
    "MethodMetrics",
    "SeriesPoint",
    "build_environment",
    "sweep",
]
