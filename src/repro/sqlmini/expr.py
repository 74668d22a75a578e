"""Arithmetic expression AST for ORDER BY clauses.

Expressions are parsed into a small AST, then *classified* into one of
the two families whose convexity the shape itself proves:

1. affine       -> :class:`LinearFunction` (+ constant offset),
2. Lp distance  -> :class:`LpDistance` (``w*(x-t)**p`` / ``w*abs(x-t)`` sums).

Anything else (``n1*n2``, ``-(n1-0.5)**2``, ...) raises :class:`SqlError`:
the dialect cannot tell a convex expression from a concave one, and a
block bound over a non-convex score is not a bound.  ``DESC`` negates
the score, which keeps it convex only for an affine expression, so
``DESC`` on an Lp distance raises too.  A convex function of another
shape is built by hand as a :class:`~repro.ranking.ConvexFunction` with
its subgradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..ranking.functions import (
    LinearFunction,
    LpDistance,
    RankingFunction,
    descending,
)
from .lexer import SqlError


class Expr:
    """Base expression node."""

    def columns(self) -> set[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Expr):
    value: float

    def columns(self) -> set[str]:
        return set()


@dataclass(frozen=True)
class Col(Expr):
    name: str

    def columns(self) -> set[str]:
        return {self.name}


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Neg(Expr):
    inner: Expr

    def columns(self) -> set[str]:
        return self.inner.columns()


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]

    def columns(self) -> set[str]:
        cols: set[str] = set()
        for arg in self.args:
            cols |= arg.columns()
        return cols


# ----------------------------------------------------------------------
# classification
# ----------------------------------------------------------------------
def to_ranking_function(
    expr: Expr, order: str = "asc", ranking_dims: Sequence[str] | None = None
) -> RankingFunction:
    """Compile an ORDER BY expression into a ranking function.

    ``ranking_dims``, when given, pins the dimension order (and validates
    that the expression only reads ranking attributes); otherwise columns
    are taken in sorted name order.
    """
    columns = sorted(expr.columns())
    if not columns:
        raise SqlError("ORDER BY expression reads no columns")
    if ranking_dims is not None:
        unknown = set(columns) - set(ranking_dims)
        if unknown:
            raise SqlError(f"ORDER BY uses non-ranking columns {sorted(unknown)}")
        columns = [d for d in ranking_dims if d in set(columns)]

    fn = _classify(expr, columns)
    if order == "desc":
        if not isinstance(fn, LinearFunction):
            raise SqlError(
                "ORDER BY ... DESC needs an affine expression: the negation "
                f"of {fn!r} is not convex"
            )
        fn = descending(fn)
    return fn


def _classify(expr: Expr, columns: list[str]) -> RankingFunction:
    affine = extract_affine(expr)
    if affine is not None:
        const, coeffs = affine
        weights = [coeffs.get(col, 0.0) for col in columns]
        return LinearFunction(columns, weights, offset=const)
    distance = extract_lp_distance(expr)
    if distance is not None:
        p, terms = distance
        term_map = {col: (weight, target) for col, weight, target in terms}
        if set(term_map) == set(columns):
            ordered = [term_map[col] for col in columns]
            return LpDistance(
                columns,
                [t for _w, t in ordered],
                p=p,
                weights=[w for w, _t in ordered],
            )
    raise SqlError(
        "ORDER BY expression is neither affine nor an Lp distance "
        "sum(w*|x-t|**p), so its convexity is unproven"
    )


def extract_affine(expr: Expr) -> tuple[float, dict[str, float]] | None:
    """``(constant, {column: coefficient})`` if the expression is affine."""
    if isinstance(expr, Num):
        return expr.value, {}
    if isinstance(expr, Col):
        return 0.0, {expr.name: 1.0}
    if isinstance(expr, Neg):
        inner = extract_affine(expr.inner)
        if inner is None:
            return None
        const, coeffs = inner
        return -const, {c: -w for c, w in coeffs.items()}
    if isinstance(expr, BinOp):
        left = extract_affine(expr.left)
        right = extract_affine(expr.right)
        if expr.op in ("+", "-") and left is not None and right is not None:
            sign = 1.0 if expr.op == "+" else -1.0
            const = left[0] + sign * right[0]
            coeffs = dict(left[1])
            for col, weight in right[1].items():
                coeffs[col] = coeffs.get(col, 0.0) + sign * weight
            return const, {c: w for c, w in coeffs.items() if w != 0.0}
        if expr.op == "*" and left is not None and right is not None:
            if not left[1]:  # constant * affine
                scale = left[0]
                return scale * right[0], {c: scale * w for c, w in right[1].items()}
            if not right[1]:
                scale = right[0]
                return scale * left[0], {c: scale * w for c, w in left[1].items()}
            return None
        if expr.op == "/" and left is not None and right is not None and not right[1]:
            if right[0] == 0:
                raise SqlError("division by zero in ranking expression")
            scale = 1.0 / right[0]
            return scale * left[0], {c: scale * w for c, w in left[1].items()}
        if expr.op == "**" and left is not None and right is not None:
            if not left[1] and not right[1]:
                return left[0] ** right[0], {}
    return None


def extract_lp_distance(
    expr: Expr,
) -> tuple[float, list[tuple[str, float, float]]] | None:
    """Detect ``sum of w_i * |x_i - t_i| ** p`` shapes.

    Returns ``(p, [(column, weight, target), ...])`` or ``None``.  All
    terms must share the same exponent p and weights must be positive.
    """
    terms = _flatten_sum(expr)
    parsed: list[tuple[str, float, float, float]] = []  # col, w, t, p
    for term in terms:
        item = _parse_distance_term(term)
        if item is None:
            return None
        parsed.append(item)
    if not parsed:
        return None
    exponents = {p for _c, _w, _t, p in parsed}
    if len(exponents) != 1:
        return None
    p = exponents.pop()
    columns = [c for c, _w, _t, _p in parsed]
    if len(set(columns)) != len(columns):
        return None
    return p, [(c, w, t) for c, w, t, _p in parsed]


def _flatten_sum(expr: Expr) -> list[Expr]:
    if isinstance(expr, BinOp) and expr.op == "+":
        return _flatten_sum(expr.left) + _flatten_sum(expr.right)
    return [expr]


def _parse_distance_term(term: Expr) -> tuple[str, float, float, float] | None:
    weight = 1.0
    # optional leading constant factor
    if isinstance(term, BinOp) and term.op == "*":
        left_affine = extract_affine(term.left)
        right_affine = extract_affine(term.right)
        if left_affine is not None and not left_affine[1]:
            weight = left_affine[0]
            term = term.right
        elif right_affine is not None and not right_affine[1]:
            weight = right_affine[0]
            term = term.left
    if weight <= 0:
        return None
    # (x - t) ** p  or  pow(x - t, p)
    if isinstance(term, BinOp) and term.op == "**":
        base, exponent = term.left, term.right
    elif isinstance(term, Call) and term.name == "pow" and len(term.args) == 2:
        base, exponent = term.args
    elif isinstance(term, Call) and term.name == "abs" and len(term.args) == 1:
        base, exponent = term.args[0], Num(1.0)
    else:
        return None
    exp_affine = extract_affine(exponent)
    if exp_affine is None or exp_affine[1]:
        return None
    p = exp_affine[0]
    if p < 1:
        return None
    if p > 1 and p % 2 != 0 and not isinstance(term, Call):
        # odd powers of a signed base are not |x-t|^p; reject
        return None
    base_affine = extract_affine(base)
    if base_affine is None or len(base_affine[1]) != 1:
        return None
    const, coeffs = base_affine
    (column, coeff), = coeffs.items()
    if coeff == 0:
        return None
    # w * (a*x + b) ** p == w*|a|^p * |x - (-b/a)| ** p for even p / abs
    target = -const / coeff
    weight *= abs(coeff) ** p
    return column, weight, target, p
