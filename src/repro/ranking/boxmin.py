"""Approximate minimizers of convex functions over axis-aligned boxes.

Linear and distance functions minimize a box in closed form (on their
classes).  For every other family this module supplies the *descent
point*: projected coordinate descent with golden-section line searches.
The point is approximate, so its value is never used as a bound; it is
where :meth:`RankingFunction.min_over_box` takes its affine minorant, and
where the search starts (the global minimizer's block).
"""

from __future__ import annotations

from typing import Callable, Sequence

_GOLDEN = (5 ** 0.5 - 1) / 2  # ~0.618


def golden_section_minimize(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Minimize a unimodal 1-d function on ``[lo, hi]``; return the argmin."""
    if hi < lo:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    return (a + b) / 2


def argmin_convex_over_box(
    fn: Callable[[Sequence[float]], float],
    lower: Sequence[float],
    upper: Sequence[float],
    tol: float = 1e-8,
    max_rounds: int = 100,
) -> tuple[float, ...]:
    """Approximate argmin of a convex ``fn`` over ``[lower, upper]``.

    Cyclic coordinate descent: each round line-searches every coordinate on
    its interval with the others held fixed.  On smooth convex objectives
    (PSD quadratics, sums of convex 1-d terms) this converges to a global
    minimizer on a box; on a kinked one it can stall (``|x - y|`` stops it
    on the diagonal), which is why the point's value is never a bound.
    Rounds stop when an entire sweep improves the value by < tol.
    """
    lower = [float(v) for v in lower]
    upper = [float(v) for v in upper]
    if len(lower) != len(upper):
        raise ValueError("lower/upper length mismatch")
    for lo, hi in zip(lower, upper):
        if hi < lo:
            raise ValueError(f"empty box: [{lo}, {hi}]")

    point = [(lo + hi) / 2 for lo, hi in zip(lower, upper)]
    best = fn(point)
    for _ in range(max_rounds):
        improved = False
        for i in range(len(point)):
            lo, hi = lower[i], upper[i]
            if hi - lo < tol:
                continue

            def along(x: float, i: int = i) -> float:
                trial = list(point)
                trial[i] = x
                return fn(trial)

            x_star = golden_section_minimize(along, lo, hi, tol=tol / 10)
            value = along(x_star)
            if value < best:
                improved |= value < best - tol
                best = value
                point[i] = x_star
        if not improved:
            break
    return tuple(point)
