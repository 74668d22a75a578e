"""Unit tests for level-set bounding boxes (the rank-mapping bounds)."""

import random

import pytest

from repro.ranking import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    RankingFunctionError,
)
from repro.ranking.levelset import level_set_box

UNIT = ([0.0, 0.0], [1.0, 1.0])


class TestLinearBounds:
    def test_positive_weights(self):
        fn = LinearFunction(["x", "y"], [1.0, 5.0])
        lo, hi = level_set_box(fn, 1.0, *UNIT)
        # x <= 1.0 (budget 1.0 with y at 0), y <= 0.2
        assert lo == (0.0, 0.0)
        assert hi[0] == pytest.approx(1.0)
        assert hi[1] == pytest.approx(0.2)

    def test_paper_example_bounds(self):
        # paper: kth score 100 under N1 + 5*N2 -> n1=100, n2=20
        fn = LinearFunction(["n1", "n2"], [1.0, 5.0])
        lo, hi = level_set_box(fn, 100.0, [0.0, 0.0], [1000.0, 1000.0])
        assert hi == (100.0, 20.0)

    def test_negative_weight_bounds_lower_side(self):
        fn = LinearFunction(["x", "y"], [1.0, -1.0])
        lo, hi = level_set_box(fn, -0.5, *UNIT)
        # f <= -0.5 with x >= 0 requires y >= 0.5; x <= 0.5 when y = 1
        assert hi[1] == 1.0
        assert lo[1] == pytest.approx(0.5)
        assert hi[0] == pytest.approx(0.5)

    def test_zero_weight_unconstrained(self):
        fn = LinearFunction(["x", "y"], [1.0, 0.0])
        lo, hi = level_set_box(fn, 0.3, *UNIT)
        assert (lo[1], hi[1]) == (0.0, 1.0)

    def test_offset_shifts_budget(self):
        fn = LinearFunction(["x"], [1.0], offset=0.5)
        _lo, hi = level_set_box(fn, 0.75, [0.0], [1.0])
        assert hi[0] == pytest.approx(0.25)

    def test_containment_random(self):
        rng = random.Random(23)
        for _ in range(30):
            fn = LinearFunction(["x", "y"], [rng.uniform(-2, 2), rng.uniform(-2, 2)])
            threshold = rng.uniform(-1, 2)
            lo, hi = level_set_box(fn, threshold, *UNIT)
            for _ in range(40):
                point = (rng.random(), rng.random())
                if fn.score(point) <= threshold:
                    assert all(l - 1e-9 <= v <= h + 1e-9 for v, l, h in zip(point, lo, hi))


class TestLpBounds:
    def test_l2_ball(self):
        fn = LpDistance(["x", "y"], [0.5, 0.5], p=2)
        lo, hi = level_set_box(fn, 0.04, *UNIT)
        assert lo[0] == pytest.approx(0.3)
        assert hi[0] == pytest.approx(0.7)

    def test_l1_diamond(self):
        fn = LpDistance(["x", "y"], [0.5, 0.5], p=1)
        lo, hi = level_set_box(fn, 0.2, *UNIT)
        assert lo == (pytest.approx(0.3), pytest.approx(0.3))
        assert hi == (pytest.approx(0.7), pytest.approx(0.7))

    def test_clamped_to_box(self):
        fn = LpDistance(["x"], [0.0], p=2)
        lo, hi = level_set_box(fn, 100.0, [0.0], [1.0])
        assert (lo[0], hi[0]) == (0.0, 1.0)

    def test_empty_level_set_collapses(self):
        fn = LpDistance(["x"], [0.5], p=2)
        lo, hi = level_set_box(fn, -1.0, [0.0], [1.0])
        assert lo == hi

    def test_containment_random(self):
        rng = random.Random(29)
        for _ in range(20):
            fn = LpDistance(
                ["x", "y"],
                [rng.random(), rng.random()],
                p=rng.choice([1, 2]),
                weights=[rng.uniform(0.5, 2), rng.uniform(0.5, 2)],
            )
            threshold = rng.uniform(0.0, 0.5)
            lo, hi = level_set_box(fn, threshold, *UNIT)
            for _ in range(40):
                point = (rng.random(), rng.random())
                if fn.score(point) <= threshold:
                    assert all(l - 1e-9 <= v <= h + 1e-9 for v, l, h in zip(point, lo, hi))


class TestOtherFamiliesRejected:
    def test_non_closed_form_families_raise(self):
        """Only linear and Lp functions have exact level-set edges; an
        approximate edge would narrow the range and drop tuples."""
        generic = ConvexFunction(
            ["x", "y"],
            lambda x, y: (x - 0.5) ** 2 + (y - 0.5) ** 2,
            subgradient=lambda x, y: (2 * (x - 0.5), 2 * (y - 0.5)),
        )
        quadratic = QuadraticForm(["x", "y"], [[1.0, 0.0], [0.0, 1.0]], center=[0.5, 0.5])
        for fn in (generic, quadratic):
            with pytest.raises(RankingFunctionError, match="linear or Lp"):
                level_set_box(fn, 0.04, *UNIT)
