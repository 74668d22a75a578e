"""Keep the sharded front end written once.

``serve/sharded.py`` used to carry the merge loop, the enumeration
stream, reverse top-k and failover twice — one copy per serving mode —
and the copies drifted apart.  They are one path over two transports
now (see :mod:`repro.serve.endpoint`); this test fails when a mode fork
grows back:

* no method of ``ShardedQueryService`` / ``ShardedAnyKCursor`` other
  than the constructor's choice of pool may *decide* on ``.mode`` (a
  comparison, or the test of an ``if`` / ``while`` / conditional
  expression) — labelling a span or an error message with it is fine;
* per-shard execution lives behind the endpoint, so the module must not
  import ``AnyKCursor``, ``ProgressiveSearch`` or ``count_family``;
* *where* a shard call runs is the transport's property
  (``pool.calls_block``), decided in one place: only ``_fan_out`` may
  submit to the step pool, and the pool is built only under a test of
  ``calls_block`` — an in-process deployment starts no step threads.
"""

import ast
from pathlib import Path

import pytest

import repro.serve.sharded as sharded

pytestmark = pytest.mark.serve

TREE = ast.parse(Path(sharded.__file__).read_text())
FRONT_END = ("ShardedQueryService", "ShardedAnyKCursor")
ALLOWED = {("ShardedQueryService", "__init__")}
ENDPOINT_ONLY = {"AnyKCursor", "ProgressiveSearch", "count_family"}


def _mentions_mode(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "mode"
        for sub in ast.walk(node)
    )


def _mode_decisions(function: ast.AST) -> list[int]:
    """Lines where ``function`` compares ``.mode`` or branches on it."""
    lines = []
    for node in ast.walk(function):
        if isinstance(node, ast.Compare):
            decided = node
        elif isinstance(node, (ast.If, ast.While, ast.IfExp)):
            decided = node.test
        else:
            continue
        if _mentions_mode(decided):
            lines.append(node.lineno)
    return lines


def test_mode_is_decided_only_in_the_constructor():
    offenders = []
    classes = [
        node for node in TREE.body
        if isinstance(node, ast.ClassDef) and node.name in FRONT_END
    ]
    assert {cls.name for cls in classes} == set(FRONT_END)
    for cls in classes:
        for function in cls.body:
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if (cls.name, function.name) in ALLOWED:
                continue
            offenders += [
                f"{cls.name}.{function.name}:{line}"
                for line in _mode_decisions(function)
            ]
    assert not offenders, f"mode fork in serve/sharded.py: {offenders}"


def test_the_checker_sees_a_fork_when_there_is_one():
    forked = ast.parse(
        "class S:\n"
        "    def run(self):\n"
        "        if self.mode == 'process':\n"
        "            return 1\n"
        "        return 2 if self.service.mode != 'thread' else 3\n"
        "    def label(self):\n"
        "        return span(mode=self.mode)\n"
    )
    run, label = forked.body[0].body
    assert _mode_decisions(run) == [3, 3, 5, 5]
    assert _mode_decisions(label) == []


def test_per_shard_execution_is_not_imported():
    imported = {
        alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(TREE)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & ENDPOINT_ONLY, sorted(imported & ENDPOINT_ONLY)


def _step_pool_sites(tree: ast.AST) -> tuple[list[str], list[tuple[str, bool]]]:
    """Where ``tree`` hands work to the step pool and where it builds it.

    Returns the functions holding a ``<x>._step_pool.submit(...)`` call,
    and for every ``ThreadPoolExecutor(..., thread_name_prefix="repro-
    shard-step")`` the function holding it and whether it sits on the
    true branch of an ``if`` / conditional expression that reads
    ``.calls_block``.
    """
    submits, builds = [], []

    def visit(node, function, guarded):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and target.attr == "submit"
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "_step_pool"
            ):
                submits.append(function)
            if getattr(target, "id", getattr(target, "attr", None)) == (
                "ThreadPoolExecutor"
            ) and any(
                kw.arg == "thread_name_prefix"
                and getattr(kw.value, "value", None) == "repro-shard-step"
                for kw in node.keywords
            ):
                builds.append((function, guarded))
        if isinstance(node, (ast.If, ast.IfExp)):
            asks = any(
                isinstance(sub, ast.Attribute) and sub.attr == "calls_block"
                for sub in ast.walk(node.test)
            )
            taken = node.body if isinstance(node.body, list) else [node.body]
            for child in ast.iter_child_nodes(node):
                visit(child, function, guarded or (asks and child in taken))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, function, guarded)

    visit(tree, None, False)
    return submits, builds


def test_only_fan_out_decides_where_a_shard_call_runs():
    submits, builds = _step_pool_sites(TREE)
    assert submits == ["_fan_out"]
    assert builds == [("__init__", True)]


def test_the_checker_sees_a_stray_step_pool():
    stray = ast.parse(
        "class S:\n"
        "    def __init__(self):\n"
        "        self._step_pool = ThreadPoolExecutor(\n"
        "            max_workers=2, thread_name_prefix='repro-shard-step')\n"
        "        self._pool = ThreadPoolExecutor(thread_name_prefix='serve')\n"
        "    def lazily(self):\n"
        "        if self._transport.calls_block:\n"
        "            self._step_pool = futures.ThreadPoolExecutor(\n"
        "                thread_name_prefix='repro-shard-step')\n"
        "        else:\n"
        "            self._step_pool.submit(run)\n"
        "    def _open_enum(self):\n"
        "        return [self._step_pool.submit(f) for f in self.opens]\n"
    )
    submits, builds = _step_pool_sites(stray)
    assert submits == ["lazily", "_open_enum"]
    assert builds == [("__init__", False), ("lazily", True)]
