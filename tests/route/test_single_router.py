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
  ``estimate_cube_cost``, its core ``estimate_cube_pages`` or
  ``estimate_baseline_cost`` (besides ``route/advisor.py``, which
  chooses cuboids, not paths): another caller would be another place
  that turns estimates into a choice;
* no ``HybridExecutor`` or ``MultiCubeRouter`` identifier is left in the
  package, the tests, the benchmarks or the examples (tokens, not prose:
  a docstring may still tell the story).

The router also once corrected a coarse cube estimate with a second,
learned cost model: a per-query-shape cost book blending observed costs
into the estimate, with probing and two knobs.  The cube now prices
itself from its own record counts and the router takes the cheapest
estimate, so that model is gone too:

* the modules ``repro.route.cost`` and ``repro.route.signature`` do not
  import;
* no ``CostBook``, ``prior_strength``, ``probe_margin`` or ``shape_of``
  identifier is left in the same four trees.

Which cuboids to materialize was once three heuristics: a fragment-size
recommender, co-occurrence grouping, and an online advisor promoting by
popularity thresholds.  The advisor now promotes what the cube estimate
says saves the most pages, so the other two and the thresholds are gone:

* the modules ``repro.core.advisor`` and ``repro.core.grouping`` do not
  import;
* no ``hot_fraction``, ``cold_fraction``, ``max_promote_dims``,
  ``recommend_fragments``, ``FragmentDesign``, ``cooccurrence_grouping``
  or ``realized_fragment_entries`` identifier is left in the same trees.
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
ESTIMATORS = {"estimate_cube_cost", "estimate_cube_pages", "estimate_baseline_cost"}
#: the module that defines the estimators (its wrapper calls the core)
DEFINED_IN = "core/estimate.py"
ALLOWED_CALLERS = {
    "route/router.py",
    #: chooses cuboids, not paths
    "route/advisor.py",
}
GONE = {
    "HybridExecutor", "MultiCubeRouter",
    "CostBook", "prior_strength", "probe_margin", "shape_of",
    "hot_fraction", "cold_fraction", "max_promote_dims",
    "recommend_fragments", "FragmentDesign", "cooccurrence_grouping",
    "realized_fragment_entries",
}


def _sources(*roots: Path):
    for root in roots:
        yield from sorted(root.rglob("*.py"))


@pytest.mark.parametrize(
    "module",
    [
        "repro.core.hybrid", "repro.core.multigrid",
        "repro.route.cost", "repro.route.signature",
        "repro.core.advisor", "repro.core.grouping",
    ],
)
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
    assert callers - {DEFINED_IN} == ALLOWED_CALLERS


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
