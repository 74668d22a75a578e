"""Keep the router written once.

The repository once held three routers over the same answer-identical
executors: a cube-or-baseline hybrid executor, a router over cubes built
on ranking-dimension groups, and :class:`repro.route.router.AdaptiveRouter`.
The first two are gone; their decisions are the router's, made over one
cost model (``repro.core.estimate``).  This test fails when one grows
back:

* the modules ``repro.core.hybrid`` and ``repro.core.multigrid`` do not
  import;
* under ``src/repro`` only ``route/router.py`` calls
  ``estimate_cube_cost`` or ``estimate_baseline_cost``: a second caller
  would be a second place that turns estimates into a choice;
* no ``HybridExecutor`` or ``MultiCubeRouter`` identifier is left in the
  package, the tests, the benchmarks or the examples (tokens, not prose:
  a docstring may still tell the story).
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
ESTIMATORS = {"estimate_cube_cost", "estimate_baseline_cost"}
GONE = {"HybridExecutor", "MultiCubeRouter"}


def _sources(*roots: Path):
    for root in roots:
        yield from sorted(root.rglob("*.py"))


@pytest.mark.parametrize("module", ["repro.core.hybrid", "repro.core.multigrid"])
def test_the_old_routers_do_not_import(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_only_the_router_turns_estimates_into_a_choice():
    callers = set()
    for path in _sources(PACKAGE):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", None) or getattr(func, "id", None)
                if name in ESTIMATORS:
                    callers.add(path.relative_to(PACKAGE).as_posix())
    assert callers == {"route/router.py"}


def test_no_old_router_name_is_left():
    found = []
    roots = [PACKAGE] + [ROOT / d for d in ("tests", "benchmarks", "examples")]
    for path in _sources(*roots):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        found += [
            f"{path.relative_to(ROOT)}:{tok.start[0]}"
            for tok in tokens
            if tok.type == tokenize.NAME and tok.string in GONE
        ]
    assert found == []
