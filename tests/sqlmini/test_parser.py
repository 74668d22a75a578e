"""Unit tests for SQL parsing and compilation to TopKQuery."""

import pytest

from repro.ranking import LinearFunction, LpDistance
from repro.relational import Schema, ranking_attr, selection_attr
from repro.sqlmini import SqlError, compile_topk, parse_topk


def make_schema():
    return Schema.of(
        [
            selection_attr("type", 3),
            selection_attr("maker", 5),
            selection_attr("color", 8),
            ranking_attr("price"),
            ranking_attr("mileage"),
        ]
    )


class TestParsing:
    def test_paper_query_q1(self):
        parsed = parse_topk(
            "select top 10 from R where type = 1 and color = 2 "
            "order by price + mileage asc"
        )
        assert parsed.k == 10
        assert parsed.table == "R"
        assert parsed.selections == {"type": 1.0, "color": 2.0}
        assert parsed.order == "asc"

    def test_desc(self):
        parsed = parse_topk("SELECT TOP 3 FROM R ORDER BY price DESC")
        assert parsed.order == "desc"

    def test_default_asc(self):
        parsed = parse_topk("SELECT TOP 3 FROM R ORDER BY price")
        assert parsed.order == "asc"

    def test_projection_list(self):
        parsed = parse_topk("SELECT TOP 3 maker, price FROM R ORDER BY price")
        assert parsed.projection == ("maker", "price")

    def test_star_projection(self):
        parsed = parse_topk("SELECT TOP 3 * FROM R ORDER BY price")
        assert parsed.projection is None

    def test_string_selection_value(self):
        parsed = parse_topk("SELECT TOP 1 FROM R WHERE type = 'sedan' ORDER BY price")
        assert parsed.selections == {"type": "sedan"}

    def test_missing_order_by(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT TOP 1 FROM R")

    def test_missing_top(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT 1 FROM R ORDER BY price")

    def test_non_integer_k(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT TOP 2.5 FROM R ORDER BY price")

    def test_zero_k(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT TOP 0 FROM R ORDER BY price")

    def test_trailing_garbage(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT TOP 1 FROM R ORDER BY price LIMIT 5")

    def test_unbalanced_parens(self):
        with pytest.raises(SqlError):
            parse_topk("SELECT TOP 1 FROM R ORDER BY (price + mileage")


class TestCompilation:
    def test_linear_classification(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R WHERE type = 1 ORDER BY 2*price + mileage/2",
            make_schema(),
        )
        assert isinstance(query.ranking, LinearFunction)
        weights = dict(zip(query.ranking.dims, query.ranking.weights))
        assert weights == {"price": 2.0, "mileage": 0.5}

    def test_affine_constant_folded_into_offset(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R ORDER BY price + 3", make_schema()
        )
        assert isinstance(query.ranking, LinearFunction)
        assert query.ranking.offset == 3.0

    def test_q2_distance_classification(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R WHERE maker = 0 AND type = 1 "
            "ORDER BY (price - 10k)**2 + (mileage - 20k)**2 ASC",
            make_schema(),
        )
        fn = query.ranking
        assert isinstance(fn, LpDistance)
        assert fn.p == 2.0
        targets = dict(zip(fn.dims, fn.target))
        assert targets == {"price": 10_000.0, "mileage": 20_000.0}

    def test_weighted_distance(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R ORDER BY 3*(price - 0.5)**2 + (mileage - 0.25)**2",
            make_schema(),
        )
        fn = query.ranking
        assert isinstance(fn, LpDistance)
        weights = dict(zip(fn.dims, fn.weights))
        assert weights["price"] == pytest.approx(3.0)

    def test_abs_classification(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R ORDER BY abs(price - 0.3) + abs(mileage - 0.7)",
            make_schema(),
        )
        assert isinstance(query.ranking, LpDistance)
        assert query.ranking.p == 1.0

    def test_desc_linear(self):
        query = compile_topk(
            "SELECT TOP 5 FROM R ORDER BY price + mileage DESC", make_schema()
        )
        assert isinstance(query.ranking, LinearFunction)
        assert query.ranking.weights == (-1.0, -1.0)
        assert query.ranking.score([1.0, 1.0]) == -2.0

    def test_generic_convex_fallback(self):
        """There is none: an expression that is neither affine nor an Lp
        distance has no proven convexity, so it is refused."""
        for order_by in ("price*price + mileage", "price*mileage"):
            with pytest.raises(SqlError, match="neither affine nor an Lp"):
                compile_topk(f"SELECT TOP 5 FROM R ORDER BY {order_by}", make_schema())

    def test_value_encoders(self):
        query = compile_topk(
            "SELECT TOP 2 FROM R WHERE type = 'sedan' ORDER BY price",
            make_schema(),
            value_encoders={"type": {"sedan": 2}},
        )
        assert query.selections == {"type": 2}

    def test_missing_encoder_rejected(self):
        with pytest.raises(SqlError):
            compile_topk(
                "SELECT TOP 2 FROM R WHERE type = 'sedan' ORDER BY price",
                make_schema(),
            )

    def test_non_ranking_column_in_order_by(self):
        with pytest.raises(SqlError):
            compile_topk("SELECT TOP 2 FROM R ORDER BY maker + price", make_schema())

    def test_fractional_selection_value_rejected(self):
        with pytest.raises(SqlError):
            compile_topk(
                "SELECT TOP 2 FROM R WHERE type = 1.5 ORDER BY price", make_schema()
            )

    def test_kilo_values_in_selections(self):
        query = compile_topk(
            "SELECT TOP 2 FROM R WHERE color = 1 ORDER BY price",
            make_schema(),
        )
        assert query.selections == {"color": 1}

    def test_dims_pinned_to_schema_order(self):
        query = compile_topk(
            "SELECT TOP 2 FROM R ORDER BY mileage + price", make_schema()
        )
        assert query.ranking.dims == ("price", "mileage")


class TestExpressionEvaluation:
    def test_division(self):
        query = compile_topk("SELECT TOP 1 FROM R ORDER BY price/4", make_schema())
        assert query.ranking.score([8.0]) == pytest.approx(2.0)

    def test_unary_minus(self):
        query = compile_topk("SELECT TOP 1 FROM R ORDER BY -price + 1", make_schema())
        assert isinstance(query.ranking, LinearFunction)
        assert query.ranking.score([0.25]) == pytest.approx(0.75)

    def test_pow_function(self):
        query = compile_topk(
            "SELECT TOP 1 FROM R ORDER BY pow(price - 0.5, 2)", make_schema()
        )
        assert isinstance(query.ranking, LpDistance)

    def test_nested_parens(self):
        query = compile_topk(
            "SELECT TOP 1 FROM R ORDER BY ((price) + ((mileage)))", make_schema()
        )
        assert isinstance(query.ranking, LinearFunction)
