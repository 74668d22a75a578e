"""Workload-adaptive routing: cost-routed planning over answer-identical paths.

``AdaptiveRouter`` picks cube / fragment / baseline execution per
query by blending analytic estimates with cost observed per query shape
at the current cube epoch;
``CubeAdvisor`` promotes hot and demotes cold cuboids under a space budget;
``DriftDetector`` + ``repartition_cube`` rebuild the equi-depth grid online
when the live distribution drifts away from it.
"""

from .advisor import AdvisorError, AdvisorReport, CubeAdvisor
from .cost import DEFAULT_PRIOR_STRENGTH, CostBook, PathObservation
from .drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftDetector,
    DriftReport,
    RepartitionReport,
    repartition_cube,
)
from .router import (
    DEFAULT_PROBE_MARGIN,
    AdaptiveRouter,
    BaselinePath,
    CubePath,
    RouteDecision,
    RoutePath,
)
from .signature import QueryShape, log2_bucket, shape_of

__all__ = [
    "AdaptiveRouter",
    "AdvisorError",
    "AdvisorReport",
    "BaselinePath",
    "CostBook",
    "CubeAdvisor",
    "CubePath",
    "DEFAULT_DRIFT_THRESHOLD",
    "DEFAULT_PRIOR_STRENGTH",
    "DEFAULT_PROBE_MARGIN",
    "DriftDetector",
    "DriftReport",
    "PathObservation",
    "QueryShape",
    "RepartitionReport",
    "RouteDecision",
    "RoutePath",
    "log2_bucket",
    "repartition_cube",
    "shape_of",
]
