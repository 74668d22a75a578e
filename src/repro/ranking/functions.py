"""Ranking functions.

A ranking function scores a point in the unit hypercube ``[0, 1]^r`` spanned
by the query's ranking dimensions; top-k queries return the k tuples with
the smallest scores (Section 2 of the paper fixes ascending order without
loss of generality; :func:`descending` rewrites the other direction of a
linear function).

The ranking-cube query algorithm requires only that the function be
*convex* (Definition 1): convexity is what makes the block lower bound
``f(bid)`` sound and Lemma 1's frontier expansion complete.  Linear and Lp
functions bound a box by its exact minimum, every other family by the
affine minorant at a subgradient (:meth:`RankingFunction.min_over_box`).
The classes here cover the families the paper discusses —
linear with arbitrary-sign weights, distance-to-target measures (the
``(price - 10k)^2 + (mileage - 20k)^2`` style of query Q2), quadratic
forms — plus a generic wrapper for user-supplied convex callables.
"""

from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod
from itertools import product, repeat
from typing import Callable, Iterator, Sequence

import numpy as np


class RankingFunctionError(Exception):
    """Raised for malformed ranking-function constructions."""


# rounding margin of the default bound, in ulps per summed term
_MARGIN_ULPS = 4


def _finite(values: Sequence[float], what: str) -> tuple[float, ...]:
    """``values`` as a float tuple; NaN and ±inf are rejected.

    A non-finite parameter makes scores and block bounds NaN, and a NaN
    bound silently breaks the frontier heap's order — so it is refused
    at construction rather than answered wrongly at query time.
    """
    floats = tuple(float(v) for v in values)
    if not all(map(math.isfinite, floats)):
        raise RankingFunctionError(f"{what} must be finite, got {floats}")
    return floats


class RankingFunction(ABC):
    """A convex scoring function over named ranking dimensions.

    Attributes
    ----------
    dims:
        Names of the ranking dimensions the function reads, in the order
        :meth:`score` expects its arguments.
    """

    def __init__(self, dims: Sequence[str]):
        if not dims:
            raise RankingFunctionError("ranking function needs at least one dimension")
        if len(set(dims)) != len(dims):
            raise RankingFunctionError(f"duplicate ranking dimensions: {dims}")
        self.dims = tuple(dims)

    @property
    def arity(self) -> int:
        return len(self.dims)

    @abstractmethod
    def score(self, point: Sequence[float]) -> float:
        """Score one point (components ordered as :attr:`dims`)."""

    def min_over_box(self, lower: Sequence[float], upper: Sequence[float]) -> float:
        """A certified lower bound of the function over an axis-aligned box.

        For convex ``f``, any subgradient ``g`` at a point ``p`` of the box
        gives the affine minorant ``f(x) >= f(p) + g.(x - p)``, least at
        the corner each ``g_i``'s sign picks (as for a linear function).
        The bound is the largest of these minima over ``p`` the descent
        point :meth:`argmin_over_box` and the box's ``2^R`` corners: each
        is a lower bound, so their maximum is one, and the corners tighten
        it where a kink tilts the descent point's minorant.  A margin of a
        few ulps of each minimum's terms absorbs its sum's rounding.
        Families with a closed form override.
        """
        best = -math.inf
        corners = product(*zip(lower, upper))
        for point in (self.argmin_over_box(lower, upper), *corners):
            value = self.score(point)
            slopes = self.subgradient(point)
            _finite((value, *slopes), "score and subgradient at a minorant point")
            scale = abs(value)
            for g, lo, hi, p in zip(slopes, lower, upper, point):
                value += g * ((lo if g >= 0 else hi) - p)
                scale += abs(g) * max(abs(lo), abs(hi), abs(p))
            margin = _MARGIN_ULPS * (len(slopes) + 2) * sys.float_info.epsilon * scale
            best = max(best, value - margin)
        return best

    def subgradient(self, point: Sequence[float]) -> Sequence[float]:
        """A subgradient at ``point``: the slopes of :meth:`min_over_box`'s
        minorant.  Families with a closed-form bound need none."""
        raise RankingFunctionError(f"{self!r} has no subgradient")

    def box_min_terms(
        self, edges: Sequence[Sequence[float]]
    ) -> tuple[float, list[list[float]]] | None:
        """:meth:`min_over_box` over grid boxes as per-bin terms, if separable.

        ``edges[i]`` is dimension ``i``'s bin-boundary list.  A separable
        family returns ``(offset, terms)``, ``terms[i][c]`` being the
        very float ``min_over_box`` adds for dimension ``i`` in bin
        ``c``, so ``offset + sum(terms[i][c_i] ...)`` equals
        ``min_over_box`` of that box bit for bit.  ``None`` (the default):
        the minimum does not decompose, minimize each box instead.
        """
        return None

    def argmin_over_box(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> tuple[float, ...]:
        """A minimizing point of the function over an axis-aligned box."""
        from .boxmin import argmin_convex_over_box

        return argmin_convex_over_box(self.score, lower, upper)

    # ------------------------------------------------------------------
    # batched form (the surface of repro.vector.kernels.eval_scores)
    # ------------------------------------------------------------------
    def eval_batch(self, columns: Sequence) -> Sequence[float]:
        """Score many points given as per-dimension ``float64`` columns.

        ``columns[d][i]`` is point ``i``'s value on dimension ``d`` (the
        struct-of-arrays shape of :class:`repro.vector.ColumnarBlock`).

        **Contract:** the result is bitwise-identical to
        ``[self.score(p) for p in zip(*columns)]`` — same IEEE-754
        operations in the same per-element order.  Families whose math
        vectorizes exactly (linear accumulation, abs/multiply distance
        terms) override with NumPy implementations; everything else —
        including any exponent that would route through ``pow``, whose
        vectorized form is *not* bit-compatible with CPython's — keeps
        this scalar fallback.
        """
        return [self.score(point) for point in zip(*columns)]

    def cache_key(self) -> tuple | None:
        """Value-based signature for cross-query bound memoization.

        Two functions with equal keys score every point identically, so
        their block bounds are interchangeable (the contract
        :class:`repro.serve.cache.BoundMemo` relies on).  ``None`` means
        "no reliable signature" — the function is not memoized.  The
        closed-form families override; opaque callables keep the default.
        """
        return None

    def __call__(self, point: Sequence[float]) -> float:
        return self.score(point)


class LinearFunction(RankingFunction):
    """``f(x) = sum_i w_i * x_i``, weights of any sign.

    All linear functions are convex; the paper stresses that this strictly
    generalizes the monotone (non-negative weight) case handled by Onion
    and PREFER.
    """

    def __init__(
        self, dims: Sequence[str], weights: Sequence[float], offset: float = 0.0
    ):
        super().__init__(dims)
        if len(weights) != len(self.dims):
            raise RankingFunctionError(
                f"{len(self.dims)} dims but {len(weights)} weights"
            )
        self.weights = _finite(weights, "weights")
        (self.offset,) = _finite([offset], "offset")

    def score(self, point: Sequence[float]) -> float:
        return self.offset + sum(w * x for w, x in zip(self.weights, point))

    def min_over_box(self, lower: Sequence[float], upper: Sequence[float]) -> float:
        # The minimizing corner picks, per dimension, whichever bound the
        # weight's sign prefers.
        return self.offset + sum(
            w * (lo if w >= 0 else hi)
            for w, lo, hi in zip(self.weights, lower, upper)
        )

    def box_min_terms(self, edges):
        # per bin, the edge min_over_box picks: lower for w >= 0, else upper
        return self.offset, [
            [w * edge for edge in (bins[:-1] if w >= 0 else bins[1:])]
            for w, bins in zip(self.weights, edges)
        ]

    def argmin_over_box(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> tuple[float, ...]:
        return tuple(
            lo if w >= 0 else hi for w, lo, hi in zip(self.weights, lower, upper)
        )

    def eval_batch(self, columns: Sequence) -> Sequence[float]:
        # mirror the scalar accumulation order exactly: sum() folds left
        # from 0, then the offset is added last
        acc = np.zeros(len(columns[0]), dtype=np.float64)
        for w, col in zip(self.weights, columns):
            acc = acc + w * col
        return self.offset + acc

    def cache_key(self) -> tuple:
        return ("linear", self.dims, self.weights, self.offset)

    def skewness(self) -> float:
        """Query skewness ``u = min|w| / max|w|`` (Section 5.1.3)."""
        magnitudes = [abs(w) for w in self.weights if w != 0]
        if not magnitudes:
            return 1.0
        return min(magnitudes) / max(magnitudes)

    def __repr__(self) -> str:
        terms = " + ".join(f"{w:g}*{d}" for w, d in zip(self.weights, self.dims))
        return f"LinearFunction({terms})"


class LpDistance(RankingFunction):
    """Weighted p-norm distance to a target point (p >= 1, hence convex).

    ``f(x) = sum_i w_i * |x_i - t_i|^p`` — with ``p=2`` this is the squared
    Euclidean form of query Q2 in the paper's introduction; ``p=1`` is the
    Manhattan form; weights must be non-negative for convexity.
    """

    def __init__(
        self,
        dims: Sequence[str],
        target: Sequence[float],
        p: float = 2.0,
        weights: Sequence[float] | None = None,
    ):
        super().__init__(dims)
        if len(target) != len(self.dims):
            raise RankingFunctionError(f"{len(self.dims)} dims but {len(target)} targets")
        if p < 1:
            raise RankingFunctionError(f"p must be >= 1 for convexity, got {p}")
        if weights is None:
            weights = [1.0] * len(self.dims)
        if len(weights) != len(self.dims):
            raise RankingFunctionError("weights length mismatch")
        if any(w < 0 for w in weights):
            raise RankingFunctionError("LpDistance weights must be non-negative")
        self.target = _finite(target, "target")
        (self.p,) = _finite([p], "p")
        self.weights = _finite(weights, "weights")

    def _terms(self, weights, xs, targets) -> Iterator[float]:
        """``w * |x - t|^p`` per zipped triple: the summands of score().

        The p=1 / p=2 families use plain abs/multiply instead of
        ``** p``: bit-for-bit reproducible in vectorized form, where
        ``pow`` is not (NumPy's power drifts from CPython's by an ulp
        on ~0.1% of inputs).  General exponents keep ``**`` and are
        scored by the scalar fallback in both forms.
        """
        if self.p == 2.0:
            return (w * ((x - t) * (x - t)) for w, x, t in zip(weights, xs, targets))
        if self.p == 1.0:
            return (w * abs(x - t) for w, x, t in zip(weights, xs, targets))
        p = self.p
        return (w * abs(x - t) ** p for w, x, t in zip(weights, xs, targets))

    def score(self, point: Sequence[float]) -> float:
        return sum(self._terms(self.weights, point, self.target))

    def eval_batch(self, columns: Sequence) -> Sequence[float]:
        if self.p not in (1.0, 2.0):
            return super().eval_batch(columns)
        acc = np.zeros(len(columns[0]), dtype=np.float64)
        for w, col, t in zip(self.weights, columns, self.target):
            d = col - t
            acc = acc + (w * (d * d) if self.p == 2.0 else w * np.abs(d))
        return acc

    def min_over_box(self, lower: Sequence[float], upper: Sequence[float]) -> float:
        # Separable: the per-dimension minimizer clamps the target into the
        # box, so the minimum has a closed form.
        return self.score(self.argmin_over_box(lower, upper))

    def box_min_terms(self, edges):
        # score()'s own summand at the target clamped into each bin; no
        # offset, as sum() never returns -0.0 and ``0 + s`` is ``s``
        return 0, [
            list(self._terms(
                repeat(w),
                [min(max(t, lo), hi) for lo, hi in zip(bins, bins[1:])],
                repeat(t),
            ))
            for w, t, bins in zip(self.weights, self.target, edges)
        ]

    def argmin_over_box(
        self, lower: Sequence[float], upper: Sequence[float]
    ) -> tuple[float, ...]:
        return tuple(
            min(max(t, lo), hi) for t, lo, hi in zip(self.target, lower, upper)
        )

    def cache_key(self) -> tuple:
        return ("lp", self.dims, self.target, self.p, self.weights)

    def __repr__(self) -> str:
        return f"LpDistance(dims={self.dims}, target={self.target}, p={self.p:g})"


class QuadraticForm(RankingFunction):
    """``f(x) = (x - c)' Q (x - c) + b' x`` with positive semidefinite Q.

    Covers correlated quadratic preferences; convexity requires Q to be
    PSD, which the constructor verifies via a Cholesky-style check.  Block
    bounds take the default affine minorant at the exact gradient.
    """

    def __init__(
        self,
        dims: Sequence[str],
        matrix: Sequence[Sequence[float]],
        center: Sequence[float] | None = None,
        linear: Sequence[float] | None = None,
    ):
        super().__init__(dims)
        n = len(self.dims)
        self.matrix = [list(_finite(row, "matrix entries")) for row in matrix]
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise RankingFunctionError(f"matrix must be {n}x{n}")
        self.center = _finite(center or [0.0] * n, "center")
        self.linear = _finite(linear or [0.0] * n, "linear")
        if len(self.center) != n or len(self.linear) != n:
            raise RankingFunctionError("center/linear length mismatch")
        if not _is_psd(self.matrix):
            raise RankingFunctionError("quadratic form matrix must be PSD for convexity")

    def score(self, point: Sequence[float]) -> float:
        diff = [x - c for x, c in zip(point, self.center)]
        quad = sum(
            diff[i] * self.matrix[i][j] * diff[j]
            for i in range(len(diff))
            for j in range(len(diff))
        )
        return quad + sum(b * x for b, x in zip(self.linear, point))

    def subgradient(self, point: Sequence[float]) -> list[float]:
        # the exact gradient (Q + Q')(x - c) + b
        diff = [x - c for x, c in zip(point, self.center)]
        q = self.matrix
        return [
            sum((q[i][j] + q[j][i]) * d for j, d in enumerate(diff)) + b
            for i, b in enumerate(self.linear)
        ]

    def cache_key(self) -> tuple:
        return (
            "quadratic",
            self.dims,
            tuple(tuple(row) for row in self.matrix),
            self.center,
            self.linear,
        )

    def __repr__(self) -> str:
        return f"QuadraticForm(dims={self.dims})"


class ConvexFunction(RankingFunction):
    """Wrapper for a user-supplied convex callable and its subgradient.

    Convexity cannot be verified for a black box; the caller asserts it.
    ``subgradient(*point)`` returns one slope per dimension, a subgradient
    of ``fn`` at ``point``: block bounds are the affine minorant it spans
    (:meth:`RankingFunction.min_over_box`), a proven lower bound exactly
    when the assertion holds.  A non-finite score or slope raises
    :class:`RankingFunctionError` instead of reaching the frontier heap.
    """

    def __init__(
        self,
        dims: Sequence[str],
        fn: Callable[..., float],
        subgradient: Callable[..., Sequence[float]],
        name: str = "convex",
    ):
        super().__init__(dims)
        self._fn = fn
        self._subgradient = subgradient
        self.name = name

    def score(self, point: Sequence[float]) -> float:
        value = float(self._fn(*point))
        if not math.isfinite(value):
            raise RankingFunctionError(f"{self!r} scored {value} at {tuple(point)}")
        return value

    def subgradient(self, point: Sequence[float]) -> Sequence[float]:
        slopes = _finite(self._subgradient(*point), f"{self!r} subgradient")
        if len(slopes) != self.arity:
            raise RankingFunctionError(
                f"{self!r} subgradient has {len(slopes)} slopes for {self.arity} dims"
            )
        return slopes

    def __repr__(self) -> str:
        return f"ConvexFunction({self.name}, dims={self.dims})"


def descending(fn: RankingFunction) -> LinearFunction:
    """Rewrite ``ORDER BY fn DESC`` as an ascending convex problem.

    Only a linear function is both convex and concave, so only its
    negation (the flipped linear function) is convex again; any other
    family raises :class:`RankingFunctionError`.
    """
    if not isinstance(fn, LinearFunction):
        raise RankingFunctionError(
            f"descending order needs a linear function; the negation of {fn!r} "
            "is not convex"
        )
    return LinearFunction(fn.dims, [-w for w in fn.weights], offset=-fn.offset)


def is_convex_on_samples(
    fn: RankingFunction, points: Sequence[Sequence[float]], tol: float = 1e-9
) -> bool:
    """Spot-check Definition 1 on sampled point pairs (testing helper)."""
    pts = [tuple(p) for p in points]
    for i, x1 in enumerate(pts):
        for x2 in pts[i + 1:]:
            for lam in (0.25, 0.5, 0.75):
                mid = tuple(lam * a + (1 - lam) * b for a, b in zip(x1, x2))
                if fn.score(mid) > lam * fn.score(x1) + (1 - lam) * fn.score(x2) + tol:
                    return False
    return True


def _is_psd(matrix: list[list[float]], tol: float = 1e-10) -> bool:
    """Check positive semidefiniteness via symmetric eigen-free pivoting."""
    n = len(matrix)
    # symmetrize to guard against tiny asymmetries
    a = [[0.5 * (matrix[i][j] + matrix[j][i]) for j in range(n)] for i in range(n)]
    # modified Cholesky: attempt factorization, allowing zero pivots
    for k in range(n):
        if a[k][k] < -tol:
            return False
        if a[k][k] <= tol:
            # pivot ~0: the rest of row/col k must be ~0 too
            if any(abs(a[k][j]) > math.sqrt(tol) for j in range(k + 1, n)):
                return False
            continue
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] -= a[i][k] * a[k][j] / pivot
    return True
