"""Ranking functions and convex box minimization.

Implements the paper's function model (Definition 1: convex scoring
functions) plus the block lower-bound computation ``f(bid)`` needed by the
ranking-cube search step.
"""

from .boxmin import argmin_convex_over_box, golden_section_minimize
from .functions import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    RankingFunction,
    RankingFunctionError,
    descending,
    is_convex_on_samples,
)

__all__ = [
    "ConvexFunction",
    "LinearFunction",
    "LpDistance",
    "QuadraticForm",
    "RankingFunction",
    "RankingFunctionError",
    "argmin_convex_over_box",
    "descending",
    "golden_section_minimize",
    "is_convex_on_samples",
]
