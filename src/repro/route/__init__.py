"""Workload-adaptive routing: cost-routed planning over answer-identical paths.

``AdaptiveRouter`` picks cube / fragment / baseline execution per
query by the cheapest estimate, the cube's priced from its own counts;
``CubeAdvisor`` promotes and demotes cuboids by the estimated pages they
save over the observed queries, under a space budget;
``DriftDetector`` + ``repartition_cube`` rebuild the equi-depth grid online
when the live distribution drifts away from it.
"""

from .advisor import AdvisorError, AdvisorReport, CubeAdvisor
from .drift import (
    DEFAULT_DRIFT_THRESHOLD,
    DriftDetector,
    DriftReport,
    RepartitionReport,
    repartition_cube,
)
from .router import (
    AdaptiveRouter,
    BaselinePath,
    CubePath,
    RouteDecision,
    RoutePath,
)

__all__ = [
    "AdaptiveRouter",
    "AdvisorError",
    "AdvisorReport",
    "BaselinePath",
    "CubeAdvisor",
    "CubePath",
    "DEFAULT_DRIFT_THRESHOLD",
    "DriftDetector",
    "DriftReport",
    "RepartitionReport",
    "RouteDecision",
    "RoutePath",
    "repartition_cube",
]
