"""Bounding boxes of convex level sets.

The rank-mapping baseline [Chang/Hristidis-style top-k-to-range mapping,
reference [4] of the paper] rewrites ``TOP k ... ORDER BY f`` into a range
query: given a score threshold ``s`` (the paper feeds the *optimal* value,
the true k-th score), it needs per-dimension bounds ``n_i`` such that every
tuple with ``f(x) <= s`` satisfies ``lo_i <= x_i <= hi_i``.

Linear and Lp-distance functions -- the families the baseline is measured
with -- get exact closed forms.  Any other family raises
:class:`RankingFunctionError`: an approximate edge would narrow the range
and drop tuples.
"""

from __future__ import annotations

from typing import Sequence

from .functions import LinearFunction, LpDistance, RankingFunction, RankingFunctionError


def level_set_box(
    fn: RankingFunction,
    threshold: float,
    lower: Sequence[float],
    upper: Sequence[float],
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Tight per-dimension bounds of ``{x in box : f(x) <= threshold}``.

    Returns ``(lo, hi)`` tuples.  If the level set is empty (threshold
    below the box minimum), returns the degenerate box at the minimizer.
    """
    lower = [float(v) for v in lower]
    upper = [float(v) for v in upper]
    if isinstance(fn, LinearFunction):
        return _linear_bounds(fn, threshold, lower, upper)
    if isinstance(fn, LpDistance):
        return _lp_bounds(fn, threshold, lower, upper)
    raise RankingFunctionError(
        f"level-set bounds need a linear or Lp function, got {fn!r}"
    )


def _linear_bounds(
    fn: LinearFunction, threshold: float, lower: list[float], upper: list[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    los: list[float] = []
    his: list[float] = []
    for i, w in enumerate(fn.weights):
        rest = sum(
            wj * (lo if wj >= 0 else hi)
            for j, (wj, lo, hi) in enumerate(zip(fn.weights, lower, upper))
            if j != i
        )
        budget = threshold - fn.offset - rest
        if w > 0:
            los.append(lower[i])
            his.append(min(upper[i], max(lower[i], budget / w)))
        elif w < 0:
            his.append(upper[i])
            los.append(max(lower[i], min(upper[i], budget / w)))
        else:
            los.append(lower[i])
            his.append(upper[i])
    return tuple(los), tuple(his)


def _lp_bounds(
    fn: LpDistance, threshold: float, lower: list[float], upper: list[float]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    los: list[float] = []
    his: list[float] = []
    for i, (w, t) in enumerate(zip(fn.weights, fn.target)):
        if w <= 0 or threshold < 0:
            # weight 0: the dimension is unconstrained by the level set
            reach = float("inf") if threshold >= 0 else 0.0
        else:
            reach = (threshold / w) ** (1.0 / fn.p)
        los.append(max(lower[i], t - reach))
        his.append(min(upper[i], t + reach))
        if los[i] > his[i]:  # empty set: collapse to the clamped target
            clamped = min(max(t, lower[i]), upper[i])
            los[i] = his[i] = clamped
    return tuple(los), tuple(his)
