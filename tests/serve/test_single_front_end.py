"""Keep the serving front end written once.

``QueryService``, ``RoutedQueryService`` and ``ShardedQueryService`` each
used to carry their own worker pool, ``submit`` / ``run_batch`` /
``submit_reverse``, timed-run-and-record block, span ring, lifecycle,
record and stats types, and the single-cube service and every shard
endpoint built the same cache stack twice.  The request lifecycle lives
in one place now (``serve/service.py``'s ``_FrontEnd``) and each service
supplies only its answering engine; this test fails when a second copy
grows back anywhere under ``src/repro/serve/``:

* ``_admit``, ``_record``, ``_retain_spans``, ``run_batch``,
  ``submit_reverse`` and ``__exit__`` are each defined by one service
  class (a class named ``*Service``, the front end, or one deriving from
  either);
* ``submit`` is defined by exactly the two classes whose ``submit`` the
  ledger's probes wrap by name (``vars(cls)["submit"]``);
* one ``@dataclass`` declares a ``latency_s`` field (one query record);
* ``PseudoBlockCache(`` is called in one function (one cache stack).
"""

import ast
from pathlib import Path

import repro.serve as serve

SERVE_DIR = Path(serve.__file__).parent
TREES = {
    path.name: ast.parse(path.read_text()) for path in sorted(SERVE_DIR.glob("*.py"))
}
ONCE = ("_admit", "_record", "_retain_spans", "run_batch", "submit_reverse", "__exit__")
PROBED_SUBMITS = {"QueryService", "ShardedQueryService"}


def _classes(trees) -> dict[str, ast.ClassDef]:
    return {
        node.name: node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


def _service_classes(trees) -> dict[str, set[str]]:
    """Service class name -> the methods its own body defines."""
    classes = _classes(trees)
    services = {
        name for name in classes
        if name.endswith("Service") or name == "_FrontEnd"
    }
    grew = True
    while grew:  # add classes deriving from a service, transitively
        grew = False
        for name, node in classes.items():
            bases = {
                getattr(base, "id", getattr(base, "attr", None)) for base in node.bases
            }
            if name not in services and bases & services:
                services.add(name)
                grew = True
    return {
        name: {
            item.name
            for item in classes[name].body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for name in services
    }


def _definers(trees, method: str) -> list[str]:
    return sorted(
        name for name, methods in _service_classes(trees).items() if method in methods
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _latency_records(trees) -> list[str]:
    """Dataclasses with a ``latency_s`` field."""
    return sorted(
        node.name
        for node in _classes(trees).values()
        if _is_dataclass(node)
        and any(
            isinstance(item, ast.AnnAssign)
            and getattr(item.target, "id", None) == "latency_s"
            for item in node.body
        )
    )


def _cache_stack_sites(trees) -> list[str]:
    """Functions holding a ``PseudoBlockCache(...)`` call."""
    found = []
    for module, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                == "PseudoBlockCache"
                for node in ast.walk(function)
            ):
                found.append(f"{module}:{function.name}")
    return sorted(found)


def test_the_request_lifecycle_is_defined_once():
    services = _service_classes(TREES)
    assert {"QueryService", "RoutedQueryService", "ShardedQueryService"} <= set(
        services
    )
    copies = {method: _definers(TREES, method) for method in ONCE}
    assert all(len(definers) == 1 for definers in copies.values()), copies


def test_submit_is_defined_only_where_the_ledger_probes_it():
    assert set(_definers(TREES, "submit")) == PROBED_SUBMITS


def test_one_query_record_and_one_cache_stack():
    assert _latency_records(TREES) == ["QueryRecord"]
    assert _cache_stack_sites(TREES) == ["service.py:__init__"]


def test_the_checker_sees_a_fork_when_there_is_one():
    forked = {
        "a.py": ast.parse(
            "class _FrontEnd:\n"
            "    def _admit(self): pass\n"
            "    def run_batch(self): pass\n"
            "class QueryService(_FrontEnd):\n"
            "    def submit(self): pass\n"
            "class Mirror(QueryService):\n"
            "    def run_batch(self): pass\n"
            "    def submit(self): pass\n"
            "class OtherService:\n"
            "    def _admit(self): pass\n"
            "    def build(self):\n"
            "        return PseudoBlockCache(registry=None)\n"
            "@dataclass(frozen=True)\n"
            "class Record:\n"
            "    latency_s: float\n"
        ),
        "b.py": ast.parse(
            "import dataclasses\n"
            "@dataclasses.dataclass\n"
            "class ShardRecord:\n"
            "    latency_s: float\n"
            "class Cursor:\n"
            "    def run_batch(self): pass\n"
            "def make_endpoint(cube):\n"
            "    return cache.PseudoBlockCache()\n"
        ),
    }
    assert _definers(forked, "_admit") == ["OtherService", "_FrontEnd"]
    assert _definers(forked, "run_batch") == ["Mirror", "_FrontEnd"]
    assert _definers(forked, "submit") == ["Mirror", "QueryService"]
    assert _latency_records(forked) == ["Record", "ShardRecord"]
    assert _cache_stack_sites(forked) == ["a.py:build", "b.py:make_endpoint"]
