"""Property-based tests for the SQL front-end.

The key invariant: for any generated arithmetic expression over the
ranking columns, the classified ranking function scores points as the
expression itself does — classification (linear / Lp) may change the
*representation*, never the *values*.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ranking import LinearFunction
from repro.relational import Schema, ranking_attr, selection_attr
from repro.sqlmini import compile_topk
from repro.sqlmini.expr import BinOp, Col, Num, to_ranking_function

SCHEMA = Schema.of(
    [selection_attr("a1", 10), selection_attr("a2", 10)]
    + [ranking_attr("x"), ranking_attr("y")]
)

# ----------------------------------------------------------------------
# random affine expressions as text
# ----------------------------------------------------------------------
number = st.floats(0.1, 9.9).map(lambda v: f"{v:.2f}")
column = st.sampled_from(["x", "y"])
term = st.one_of(
    column,
    st.tuples(number, column).map(lambda t: f"{t[0]}*{t[1]}"),
    number,
)


@st.composite
def affine_expression(draw):
    parts = draw(st.lists(term, min_size=1, max_size=4))
    ops = draw(st.lists(st.sampled_from([" + ", " - "]), min_size=len(parts) - 1,
                        max_size=len(parts) - 1))
    text = parts[0]
    for op, part in zip(ops, parts[1:]):
        text += op + part
    return text


@settings(max_examples=60, deadline=None)
@given(expr_text=affine_expression(), point=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_affine_classification_preserves_values(expr_text, point):
    if "x" not in expr_text and "y" not in expr_text:
        return  # constant-only expressions are (correctly) rejected
    sql = f"SELECT TOP 3 FROM R ORDER BY {expr_text}"
    query = compile_topk(sql, SCHEMA)
    # the affine text is also a Python expression with the same precedence
    env = dict(zip(("x", "y"), point))
    expected = eval(expr_text, {"__builtins__": {}}, env)
    fn_point = [env[d] for d in query.ranking.dims]
    assert query.ranking.score(fn_point) == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(expr_text=affine_expression())
def test_affine_expressions_classify_as_linear(expr_text):
    # guard: expressions reading no column are rejected by the compiler
    if "x" not in expr_text and "y" not in expr_text:
        return
    query = compile_topk(f"SELECT TOP 3 FROM R ORDER BY {expr_text}", SCHEMA)
    assert isinstance(query.ranking, LinearFunction)


@settings(max_examples=40, deadline=None)
@given(
    w1=st.floats(0.1, 5), w2=st.floats(0.1, 5),
    t1=st.floats(0, 1), t2=st.floats(0, 1),
    point=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_distance_classification_preserves_values(w1, w2, t1, t2, point):
    # the SQL literals are what the compiler sees: round first
    w1, w2, t1, t2 = (float(f"{v:.3f}") for v in (w1, w2, t1, t2))
    sql = (
        f"SELECT TOP 2 FROM R ORDER BY "
        f"{w1}*(x - {t1})**2 + {w2}*(y - {t2})**2"
    )
    query = compile_topk(sql, SCHEMA)
    x, y = point
    expected = w1 * (x - t1) ** 2 + w2 * (y - t2) ** 2
    fn_point = [dict(x=x, y=y)[d] for d in query.ranking.dims]
    assert query.ranking.score(fn_point) == pytest.approx(expected, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 500),
    a1=st.integers(0, 9),
    order=st.sampled_from(["ASC", "DESC", ""]),
)
def test_parse_roundtrip_of_query_shape(k, a1, order):
    sql = f"SELECT TOP {k} FROM R WHERE a1 = {a1} ORDER BY x + y {order}"
    query = compile_topk(sql, SCHEMA)
    assert query.k == k
    assert query.selections == {"a1": a1}
    sign = -1.0 if order == "DESC" else 1.0
    assert query.ranking.score([1.0, 1.0]) == pytest.approx(sign * 2.0)


def test_direct_ast_classification_helper():
    expr = BinOp("+", Col("x"), BinOp("*", Num(2.0), Col("y")))
    fn = to_ranking_function(expr, ranking_dims=("x", "y"))
    assert isinstance(fn, LinearFunction)
    assert fn.score([1.0, 1.0]) == pytest.approx(3.0)
