"""Unit tests for the descent point of convex box minimization.

The descent point is approximate: its value tells how good the point is,
and is never a bound (block bounds are the affine minorant at it, see
tests/ranking/test_certified_bounds.py).
"""

import math

import pytest

from repro.ranking import QuadraticForm, argmin_convex_over_box, golden_section_minimize


def descent_value(fn, lower, upper):
    """``fn`` at the descent point: approximately the box minimum."""
    return fn(argmin_convex_over_box(fn, lower, upper))


class TestGoldenSection:
    def test_parabola(self):
        x = golden_section_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-6)

    def test_minimum_at_left_edge(self):
        x = golden_section_minimize(lambda x: x, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-6)

    def test_minimum_at_right_edge(self):
        x = golden_section_minimize(lambda x: -x, 0.0, 1.0)
        assert x == pytest.approx(1.0, abs=1e-6)

    def test_abs_kink(self):
        x = golden_section_minimize(lambda x: abs(x - 0.71), 0.0, 1.0)
        assert x == pytest.approx(0.71, abs=1e-6)

    def test_degenerate_interval(self):
        assert golden_section_minimize(lambda x: x * x, 0.5, 0.5) == 0.5

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda x: x, 1.0, 0.0)


class TestBoxMinimize:
    def test_quadratic_interior_minimum(self):
        fn = lambda p: (p[0] - 0.4) ** 2 + (p[1] - 0.6) ** 2
        point = argmin_convex_over_box(fn, [0.0, 0.0], [1.0, 1.0])
        assert point[0] == pytest.approx(0.4, abs=1e-4)
        assert point[1] == pytest.approx(0.6, abs=1e-4)
        assert descent_value(fn, [0, 0], [1, 1]) == pytest.approx(0, abs=1e-6)

    def test_minimum_on_boundary(self):
        fn = lambda p: (p[0] - 2.0) ** 2 + p[1] ** 2
        point = argmin_convex_over_box(fn, [0.0, 0.0], [1.0, 1.0])
        assert point[0] == pytest.approx(1.0, abs=1e-4)
        assert point[1] == pytest.approx(0.0, abs=1e-4)

    def test_correlated_quadratic_interior(self):
        # f = x^2 + y^2 + 1.5xy, convex (eigenvalues 0.25, 1.75),
        # unconstrained minimum 0 at the origin, inside the box
        fn = lambda p: p[0] ** 2 + p[1] ** 2 + 1.5 * p[0] * p[1]
        value = descent_value(fn, [-1.0, -1.0], [1.0, 1.0])
        assert value == pytest.approx(0.0, abs=1e-4)

    def test_correlated_quadratic_excluded_origin(self):
        # same f restricted to x in [0.5, 1]: coordinate descent must
        # navigate the correlation; true min at (0.5, -0.375) = 0.109375
        fn = lambda p: p[0] ** 2 + p[1] ** 2 + 1.5 * p[0] * p[1]
        value = descent_value(fn, [0.5, -1.0], [1.0, 1.0])
        assert value == pytest.approx(0.109375, abs=1e-4)

    def test_linear_reaches_corner(self):
        fn = lambda p: 3 * p[0] - 2 * p[1]
        value = descent_value(fn, [0.0, 0.0], [1.0, 1.0])
        assert value == pytest.approx(-2.0, abs=1e-6)

    def test_exp_convex(self):
        fn = lambda p: math.exp(p[0]) + math.exp(-p[0])
        value = descent_value(fn, [-1.0], [1.0])
        assert value == pytest.approx(2.0, abs=1e-6)

    def test_degenerate_box(self):
        fn = lambda p: p[0] ** 2 + p[1] ** 2
        value = descent_value(fn, [0.5, 0.5], [0.5, 0.5])
        assert value == pytest.approx(0.5)

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError):
            argmin_convex_over_box(lambda p: 0.0, [0.0], [1.0, 2.0])

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            argmin_convex_over_box(lambda p: 0.0, [1.0], [0.0])

    def test_lower_bound_property_random_quadratics(self):
        # the box bound taken at the descent point must lower-bound f at
        # sampled box points
        import random

        rng = random.Random(17)
        for _ in range(20):
            cx, cy = rng.uniform(-1, 2), rng.uniform(-1, 2)
            wx, wy = rng.uniform(0.1, 3), rng.uniform(0.1, 3)
            fn = QuadraticForm(["x", "y"], [[wx, 0.0], [0.0, wy]], center=[cx, cy])
            lo = [rng.uniform(0, 0.4), rng.uniform(0, 0.4)]
            hi = [lo[0] + rng.uniform(0.1, 0.6), lo[1] + rng.uniform(0.1, 0.6)]
            bound = fn.min_over_box(lo, hi)
            for _ in range(25):
                point = [rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])]
                assert bound <= fn.score(point)
