"""Unit tests for TopKQuery and results."""

import pytest

from repro.ranking import LinearFunction
from repro.relational import (
    QueryError,
    QueryResult,
    ResultRow,
    Schema,
    TopKQuery,
    ranking_attr,
    selection_attr,
)


def make_schema():
    return Schema.of(
        [
            selection_attr("a1", 3),
            selection_attr("a2", 5),
            ranking_attr("n1"),
            ranking_attr("n2"),
        ]
    )


def linear(dims=("n1", "n2"), weights=(1.0, 1.0)):
    return LinearFunction(list(dims), list(weights))


class TestConstruction:
    def test_basic(self):
        query = TopKQuery(5, {"a1": 1}, linear())
        assert query.k == 5
        assert query.selection_names == ("a1",)
        assert query.ranking_names == ("n1", "n2")
        assert query.num_selections == 1

    def test_zero_k_rejected(self):
        with pytest.raises(QueryError):
            TopKQuery(0, {}, linear())

    def test_attribute_in_both_roles_rejected(self):
        with pytest.raises(QueryError):
            TopKQuery(1, {"n1": 1}, linear())

    def test_selection_names_sorted(self):
        query = TopKQuery(1, {"a2": 0, "a1": 1}, linear())
        assert query.selection_names == ("a1", "a2")

    @pytest.mark.parametrize(
        "k, selections",
        [
            (3, {"a1": 2.5}),  # was truncated to a1=2 by validate_against
            (3, {"a1": "1"}),  # was answered as a1=1
            (2.5, {"a1": 1}),  # returned 3 rows
            (True, {"a1": 1}),  # was accepted as k=1
            ("3", {"a1": 1}),  # raised a bare TypeError
        ],
    )
    def test_non_integer_k_or_selection_rejected(self, k, selections):
        with pytest.raises(QueryError, match="must be integers"):
            TopKQuery(k, selections, linear())

    def test_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        ranking = linear()
        query = TopKQuery(np.int64(3), {"a1": np.int32(1)}, ranking)
        query.validate_against(make_schema())
        assert query == TopKQuery(3, {"a1": 1}, ranking)


class TestValidation:
    def test_valid_query_passes(self):
        TopKQuery(3, {"a1": 2, "a2": 4}, linear()).validate_against(make_schema())

    def test_unknown_selection_attribute(self):
        with pytest.raises(QueryError):
            TopKQuery(3, {"zz": 0}, linear()).validate_against(make_schema())

    def test_ranking_attr_as_selection(self):
        query = TopKQuery(3, {"n1": 0}, linear(["n2"], [1.0]))
        with pytest.raises(QueryError):
            query.validate_against(make_schema())

    def test_out_of_domain_value(self):
        with pytest.raises(QueryError):
            TopKQuery(3, {"a1": 3}, linear()).validate_against(make_schema())

    def test_negative_value(self):
        with pytest.raises(QueryError):
            TopKQuery(3, {"a1": -1}, linear()).validate_against(make_schema())

    def test_unknown_ranking_dim(self):
        with pytest.raises(QueryError):
            TopKQuery(3, {}, linear(["n9"], [1.0])).validate_against(make_schema())

    def test_selection_attr_in_ranking(self):
        with pytest.raises(QueryError):
            TopKQuery(3, {}, linear(["a1"], [1.0])).validate_against(make_schema())

    def test_unknown_projection(self):
        query = TopKQuery(3, {}, linear(), projection=("ghost",))
        with pytest.raises(QueryError):
            query.validate_against(make_schema())


class TestRowHelpers:
    def test_matches(self):
        schema = make_schema()
        query = TopKQuery(1, {"a1": 1, "a2": 2}, linear())
        assert query.matches(schema, (1, 2, 0.5, 0.5))
        assert not query.matches(schema, (1, 3, 0.5, 0.5))

    def test_empty_selection_matches_all(self):
        schema = make_schema()
        query = TopKQuery(1, {}, linear())
        assert query.matches(schema, (0, 0, 0.0, 0.0))

    def test_score_row(self):
        schema = make_schema()
        query = TopKQuery(1, {}, linear(["n2", "n1"], [10.0, 1.0]))
        # dims order (n2, n1) must be honored
        assert query.score_row(schema, (0, 0, 0.5, 0.25)) == pytest.approx(3.0)


class TestResults:
    def test_result_row_ordering(self):
        rows = sorted(
            [ResultRow(2, 0.5), ResultRow(1, 0.5), ResultRow(3, 0.1)]
        )
        assert [r.tid for r in rows] == [3, 1, 2]

    def test_query_result_accessors(self):
        result = QueryResult(rows=[ResultRow(1, 0.2), ResultRow(2, 0.4)])
        assert result.tids == [1, 2]
        assert result.scores == [0.2, 0.4]
        assert len(result) == 2
        assert [r.tid for r in result] == [1, 2]
