"""Keep the progressive search written once.

``core/executor.py`` used to hold the paper's four-step loop twice — a
private frontier loop under ``execute()`` beside ``ProgressiveSearch``
— with the pre-process step three times and the stop rule twice (the
second copy in ``serve/endpoint.py``).  They are one search now, and
every consumer drives it; this test fails when a copy grows back:

* the frontier is popped in exactly one function,
  ``ProgressiveSearch.step``, and the retrieve / score / expand steps
  and the opening of a pseudo-block entry are called from nowhere else;
* the plan is resolved in exactly one place: ``covering_cuboids(`` and
  ``argmin_over_box(`` each have a single call site in the module;
* ``serve/endpoint.py`` hands ``kth`` to the search's stop-rule driver
  and compares no ``best_unseen`` against a k-th score itself;
* a block's bound is minimized over its box (``min_over_box(``) at one
  call site, the fallback for families without a per-bin term table,
  and the row path's evaluate step reads a block in exactly two ways:
  ``get_base_block(bid, qualifying)`` without a shared block cache (the
  selective read, never a filtered full read), and ``get_base_block(bid)``
  on a cache miss (the whole block, decoded once for every later visit).

It also keeps one scoring engine.  A columnar engine once forked the
evaluate step and the neighbor expansion behind a ``use_vector`` switch;
it lost to the row loop on every workload and was deleted.  So:

* ``_score_block`` is the only function that reads a base block, and
  ``_expand_neighbors`` bounds neighbors only through ``_block_bound``;
* ``core/executor.py`` imports nothing from ``repro.vector``;
* no ``use_vector``, ``include_vector`` or ``block_k`` identifier is left
  anywhere under ``src/repro`` (tokens, not prose: a docstring may still
  tell the story).
"""

import ast
import io
import tokenize
from pathlib import Path

import repro
import repro.core.executor as executor
import repro.serve.endpoint as endpoint

EXECUTOR = ast.parse(Path(executor.__file__).read_text())
ENDPOINT = ast.parse(Path(endpoint.__file__).read_text())
STEP = "ProgressiveSearch.step"


def _call_sites(tree: ast.AST, callee: str) -> list[str]:
    """Qualified names of the functions calling ``callee`` (a bare name
    or the last attribute of a dotted call), one entry per call."""
    sites: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name == callee:
                    sites.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return sites


def _stop_rule_comparisons(tree: ast.AST) -> list[int]:
    """Lines comparing ``kth``, ``.best_unseen`` or a name bound to it."""
    watched = {"kth", "best_unseen"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(sub, ast.Attribute) and sub.attr == "best_unseen"
            for sub in ast.walk(node.value)
        ):
            watched |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for sub in ast.walk(node):
            mentioned = getattr(sub, "attr", None) or getattr(sub, "id", None)
            if mentioned not in watched:
                continue
            is_none_test = (
                isinstance(sub, ast.Name)
                and sub is node.left
                and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            )
            if not is_none_test:
                lines.append(node.lineno)
    return lines


def test_the_frontier_is_popped_in_one_function():
    assert _call_sites(EXECUTOR, "heappop") == [STEP]


def test_the_four_steps_run_only_under_step():
    for helper in (
        "_retrieve", "_score_block", "_expand_neighbors", "_open_pseudo_block"
    ):
        assert _call_sites(EXECUTOR, helper) == [STEP], helper


def test_the_plan_is_resolved_in_one_place():
    assert _call_sites(EXECUTOR, "covering_cuboids") == ["ProgressiveSearch.__init__"]
    assert _call_sites(EXECUTOR, "argmin_over_box") == [
        "ProgressiveSearch._start_block"
    ]
    # ... which itself runs once per search
    assert _call_sites(EXECUTOR, "_start_block") == ["ProgressiveSearch.__init__"]


def _method(tree: ast.AST, qualname: str) -> ast.FunctionDef:
    cls, name = qualname.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{qualname} not found")


def test_bounds_minimize_a_box_only_as_the_fallback():
    assert _call_sites(EXECUTOR, "min_over_box") == ["ProgressiveSearch._block_bound"]


def test_the_row_path_reads_only_the_qualifying_tids():
    calls = [
        node
        for node in ast.walk(_method(EXECUTOR, "ProgressiveSearch._score_block"))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "get_base_block"
    ]
    assert sorted([ast.unparse(arg) for arg in call.args] for call in calls) == [
        ["bid"],
        ["bid", "qualifying"],
    ]


def test_one_routine_reads_base_blocks():
    assert set(_call_sites(EXECUTOR, "get_base_block")) == {
        "ProgressiveSearch._score_block"
    }


def test_neighbors_are_bounded_only_through_block_bound():
    called = {
        getattr(node.func, "attr", None) or getattr(node.func, "id", None)
        for node in ast.walk(_method(EXECUTOR, "ProgressiveSearch._expand_neighbors"))
        if isinstance(node, ast.Call)
    }
    assert called == {"neighbors", "add", "heappush", "_block_bound"}


def _imported_modules(tree: ast.AST) -> set[str]:
    """Every module a tree imports, relative imports as written (``..x``)."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    return modules


def test_the_executor_imports_no_columnar_kernels():
    assert [
        name
        for name in _imported_modules(EXECUTOR)
        if name.lstrip(".").split(".")[0] == "vector"
        or name.startswith("repro.vector")
    ] == []


def _identifiers(source: str) -> set[str]:
    return {
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME
    }


def test_no_engine_switch_is_left_in_the_package():
    package = Path(repro.__file__).parent
    retired = {"use_vector", "include_vector", "block_k"}
    found = {
        str(path.relative_to(package)): hits
        for path in sorted(package.rglob("*.py"))
        if (hits := retired & _identifiers(path.read_text()))
    }
    assert found == {}


def test_the_endpoint_leaves_the_stop_rule_to_the_search():
    assert _stop_rule_comparisons(ENDPOINT) == []
    assert _call_sites(ENDPOINT, "run") == ["ShardEndpoint._batch"]


def test_the_checkers_see_a_copy_when_there_is_one():
    forked = ast.parse(
        "class Executor:\n"
        "    def execute(self):\n"
        "        bid = heapq.heappop(frontier)\n"
        "    def _run(session, kth):\n"
        "        bound = session.search.best_unseen\n"
        "        if kth is not None and bound > kth:\n"
        "            return\n"
        "        if k <= len(topk) and -topk[0][0] < search.best_unseen:\n"
        "            return\n"
        "        if kth is None:\n"
        "            return search.best_unseen\n"
    )
    assert _call_sites(forked, "heappop") == ["Executor.execute"]
    assert _stop_rule_comparisons(forked) == [6, 6, 8]
    switched = (
        "from ..vector.kernels import topk_select\n"
        "def run(use_vector=False):\n"
        "    'block_k in prose is fine'\n"
    )
    assert _imported_modules(ast.parse(switched)) == {"..vector.kernels"}
    assert {"use_vector", "block_k"} & _identifiers(switched) == {"use_vector"}
