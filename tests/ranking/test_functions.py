"""Unit tests for ranking functions."""

import pytest

from repro.ranking import (
    ConvexFunction,
    LinearFunction,
    LpDistance,
    QuadraticForm,
    RankingFunctionError,
    descending,
    is_convex_on_samples,
)


class TestLinearFunction:
    def test_score(self):
        fn = LinearFunction(["x", "y"], [2.0, -1.0])
        assert fn.score([1.0, 3.0]) == -1.0

    def test_offset(self):
        fn = LinearFunction(["x"], [1.0], offset=5.0)
        assert fn.score([2.0]) == 7.0

    def test_min_over_box_positive_weights(self):
        fn = LinearFunction(["x", "y"], [1.0, 2.0])
        assert fn.min_over_box([0.1, 0.2], [0.9, 0.8]) == pytest.approx(0.5)

    def test_min_over_box_negative_weight_picks_upper(self):
        fn = LinearFunction(["x", "y"], [1.0, -1.0])
        assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) == pytest.approx(-1.0)
        assert fn.argmin_over_box([0.0, 0.0], [1.0, 1.0]) == (0.0, 1.0)

    def test_global_minimizer(self):
        # the search's start point: the minimizer over the unit hypercube
        fn = LinearFunction(["x", "y"], [1.0, 1.0])
        assert fn.argmin_over_box([0.0, 0.0], [1.0, 1.0]) == (0.0, 0.0)

    def test_skewness(self):
        assert LinearFunction(["x", "y"], [1.0, 0.25]).skewness() == 0.25
        assert LinearFunction(["x", "y"], [-4.0, 1.0]).skewness() == 0.25
        assert LinearFunction(["x"], [3.0]).skewness() == 1.0
        assert LinearFunction(["x", "y"], [0.0, 0.0]).skewness() == 1.0

    def test_weight_count_mismatch(self):
        with pytest.raises(RankingFunctionError):
            LinearFunction(["x", "y"], [1.0])

    def test_duplicate_dims_rejected(self):
        with pytest.raises(RankingFunctionError):
            LinearFunction(["x", "x"], [1.0, 2.0])

    def test_empty_dims_rejected(self):
        with pytest.raises(RankingFunctionError):
            LinearFunction([], [])

    def test_is_convex(self):
        fn = LinearFunction(["x", "y"], [1.0, -2.0])
        points = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.0, 0.0)]
        assert is_convex_on_samples(fn, points)

    def test_callable(self):
        fn = LinearFunction(["x"], [2.0])
        assert fn([3.0]) == 6.0


class TestLpDistance:
    def test_l2_score(self):
        fn = LpDistance(["x", "y"], [0.5, 0.5], p=2)
        assert fn.score([0.5, 0.5]) == 0.0
        assert fn.score([1.0, 0.5]) == pytest.approx(0.25)

    def test_l1_score(self):
        fn = LpDistance(["x", "y"], [0.0, 0.0], p=1)
        assert fn.score([0.3, 0.4]) == pytest.approx(0.7)

    def test_weighted(self):
        fn = LpDistance(["x"], [0.0], p=2, weights=[4.0])
        assert fn.score([0.5]) == pytest.approx(1.0)

    def test_min_over_box_target_inside(self):
        fn = LpDistance(["x", "y"], [0.5, 0.5])
        assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) == 0.0

    def test_min_over_box_target_outside_clamps(self):
        fn = LpDistance(["x", "y"], [0.0, 0.0])
        assert fn.argmin_over_box([0.2, 0.3], [1.0, 1.0]) == (0.2, 0.3)
        assert fn.min_over_box([0.2, 0.3], [1.0, 1.0]) == pytest.approx(0.04 + 0.09)

    def test_p_below_one_rejected(self):
        with pytest.raises(RankingFunctionError):
            LpDistance(["x"], [0.0], p=0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(RankingFunctionError):
            LpDistance(["x"], [0.0], weights=[-1.0])

    def test_target_length_mismatch(self):
        with pytest.raises(RankingFunctionError):
            LpDistance(["x", "y"], [0.0])

    def test_is_convex(self):
        fn = LpDistance(["x", "y"], [0.4, 0.6], p=2)
        points = [(0.0, 0.0), (1.0, 1.0), (0.2, 0.8), (0.9, 0.3)]
        assert is_convex_on_samples(fn, points)


class TestQuadraticForm:
    def test_psd_accepted_and_scored(self):
        fn = QuadraticForm(["x", "y"], [[2.0, 0.0], [0.0, 3.0]], center=[0.5, 0.5])
        assert fn.score([0.5, 0.5]) == 0.0
        assert fn.score([1.0, 0.5]) == pytest.approx(0.5)

    def test_correlated_psd(self):
        fn = QuadraticForm(["x", "y"], [[2.0, 1.0], [1.0, 2.0]])
        assert fn.score([1.0, 1.0]) == pytest.approx(6.0)

    def test_indefinite_rejected(self):
        with pytest.raises(RankingFunctionError):
            QuadraticForm(["x", "y"], [[1.0, 0.0], [0.0, -1.0]])

    def test_linear_term(self):
        fn = QuadraticForm(["x"], [[1.0]], linear=[2.0])
        assert fn.score([3.0]) == pytest.approx(9.0 + 6.0)

    def test_min_over_box_numeric(self):
        fn = QuadraticForm(["x", "y"], [[1.0, 0.0], [0.0, 1.0]], center=[0.5, 0.5])
        assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-6)
        assert fn.min_over_box([0.7, 0.7], [1.0, 1.0]) == pytest.approx(0.08, abs=1e-5)
        # a bound, never above the true minimum
        assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) <= 0.0
        assert fn.min_over_box([0.7, 0.7], [1.0, 1.0]) <= fn.score([0.7, 0.7])

    def test_gradient(self):
        # (Q + Q')(x - c) + b, with an asymmetric Q
        fn = QuadraticForm(["x", "y"], [[1.0, 2.0], [0.0, 1.0]], linear=[0.5, -1.0])
        assert fn.subgradient([1.0, 2.0]) == [1.0 * 2 + 2.0 * 2 + 0.5, 2.0 * 1 + 2.0 * 2 - 1.0]

    def test_non_square_matrix_rejected(self):
        with pytest.raises(RankingFunctionError):
            QuadraticForm(["x", "y"], [[1.0, 0.0]])

    def test_is_convex(self):
        fn = QuadraticForm(["x", "y"], [[2.0, 1.0], [1.0, 2.0]], center=[0.3, 0.3])
        points = [(0.0, 0.0), (1.0, 1.0), (0.1, 0.9)]
        assert is_convex_on_samples(fn, points)


class TestConvexFunction:
    def test_wraps_callable(self):
        fn = ConvexFunction(
            ["x", "y"],
            lambda x, y: x * x + y,
            subgradient=lambda x, y: (2 * x, 1.0),
            name="mixed",
        )
        assert fn.score([2.0, 1.0]) == 5.0
        assert fn.subgradient([2.0, 1.0]) == (4.0, 1.0)

    def test_numeric_min_over_box(self):
        fn = ConvexFunction(
            ["x"], lambda x: (x - 0.3) ** 2, subgradient=lambda x: (2 * (x - 0.3),)
        )
        assert fn.min_over_box([0.0], [1.0]) == pytest.approx(0.0, abs=1e-6)
        assert fn.min_over_box([0.5], [1.0]) == pytest.approx(0.04, abs=1e-5)
        assert fn.min_over_box([0.5], [1.0]) <= fn.score([0.5])

    def test_subgradient_is_required(self):
        with pytest.raises(TypeError):
            ConvexFunction(["x"], lambda x: x * x)

    def test_subgradient_length_checked(self):
        fn = ConvexFunction(["x", "y"], lambda x, y: x + y, subgradient=lambda x, y: (1.0,))
        with pytest.raises(RankingFunctionError, match="slopes"):
            fn.min_over_box([0.0, 0.0], [1.0, 1.0])

    def test_convexity_spot_check_rejects_concave(self):
        fn = ConvexFunction(
            ["x"], lambda x: -(x - 0.5) ** 2, subgradient=lambda x: (-2 * (x - 0.5),)
        )
        assert not is_convex_on_samples(fn, [(0.0,), (1.0,), (0.5,)])


class TestDescending:
    def test_negates_scores(self):
        fn = LinearFunction(["x"], [1.0])
        flipped = descending(fn)
        assert flipped.score([0.7]) == -0.7

    def test_double_negation_returns_original(self):
        fn = LinearFunction(["x"], [1.0], offset=0.5)
        twice = descending(descending(fn))
        assert isinstance(twice, LinearFunction)
        assert twice.cache_key() == fn.cache_key()

    def test_min_over_box_linear_closed_form(self):
        fn = descending(LinearFunction(["x", "y"], [1.0, 1.0]))
        # minimizing -x-y over the unit box = -2 at (1, 1)
        assert fn.min_over_box([0.0, 0.0], [1.0, 1.0]) == pytest.approx(-2.0)
        assert fn.argmin_over_box([0.0, 0.0], [1.0, 1.0]) == (1.0, 1.0)

    def test_offset_preserved(self):
        fn = descending(LinearFunction(["x"], [2.0], offset=1.0))
        assert fn.min_over_box([0.0], [1.0]) == pytest.approx(-3.0)
        assert fn.score([1.0]) == pytest.approx(-3.0)

    def test_rejects_non_linear(self):
        # the negation of a convex, non-linear function is concave
        generic = ConvexFunction(["x"], lambda x: x * x, subgradient=lambda x: (2 * x,))
        quadratic = QuadraticForm(["x"], [[1.0]])
        for fn in (LpDistance(["x"], [0.5]), quadratic, generic):
            with pytest.raises(RankingFunctionError, match="linear"):
                descending(fn)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: LinearFunction(["a", "b"], [bad, 1.0]),
        lambda bad: LinearFunction(["a", "b"], [1.0, 1.0], offset=bad),
        lambda bad: LpDistance(["a", "b"], [0.5, bad]),
        lambda bad: LpDistance(["a", "b"], [0.5, 0.5], weights=[abs(bad), 1.0]),
        lambda bad: LpDistance(["a", "b"], [0.5, 0.5], p=abs(bad)),
        lambda bad: QuadraticForm(["a", "b"], [[1.0, 0.0], [0.0, abs(bad)]]),
        lambda bad: QuadraticForm(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], center=[bad, 0.0]),
        lambda bad: QuadraticForm(["a", "b"], [[1.0, 0.0], [0.0, 1.0]], linear=[0.0, bad]),
    ],
    ids=[
        "linear-weight", "linear-offset", "lp-target", "lp-weight", "lp-p",
        "quadratic-matrix", "quadratic-center", "quadratic-linear",
    ],
)
def test_non_finite_parameters_rejected(build, bad):
    """A NaN/inf parameter scores NaN and a NaN bound breaks the frontier
    heap's order: every closed-form family refuses it at construction."""
    with pytest.raises(RankingFunctionError, match="finite"):
        build(bad)
