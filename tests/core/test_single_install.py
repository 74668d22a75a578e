"""Keep the cube's maintenance path written once.

Compaction, drift re-partition and the cuboid advisor each used to carry
their own copy of the snapshot -> fresh pages -> flush -> swap under the
state lock -> notify protocol (only some of them checked for a concurrent
swap), and two of them a copy of the same daemon loop.  Now
``RankingCube.install`` is the one writer of cube state and
``repro.core.daemon.MaintenanceDaemon`` the one background loop.  This
test fails when a second copy grows back:

* under ``src/repro`` only ``core/cube.py`` assigns a cube's ``grid``,
  ``base_table``, ``cuboids`` or ``_delta`` (any object's but ``self``:
  the base table and the cuboids keep their own ``self.grid``), touches
  ``_state_lock`` or calls ``_notify_invalidation``;
* ``def start`` / ``def wake`` / ``def _worker`` are written once among
  the compactor's, the advisor's and the daemon's modules.

The build has one path too: ``repro.core.cube.group_rows`` is the only
code that groups rows for a store, and every store is written from the
encoded runs it returns.  The process-pool build
(``repro.core.parallel``), the ``workers=`` knob that picked it and the
per-record path (``ChainStore.build`` over grouped record lists) are
gone, and this test fails when any grows back: the module imports,
``locate_many(`` is called outside ``group_rows``, a
``ProcessPoolExecutor`` appears under ``core/``, a build entry point
takes ``workers``, ``ChainStore`` has a ``build`` again, or code under
``core/`` calls a ``pack`` (``RecordCodec.pack`` per record).
"""

import ast
import importlib
import inspect
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.core import ChainStore, FragmentedRankingCube, RankingCube
from repro.core.cube import group_rows, materialize
from repro.shard.builder import build_sharded
from repro.workloads.synthetic import generate

PACKAGE = Path(repro.__file__).resolve().parent
STATE = {"grid", "base_table", "cuboids", "_delta"}
PROTOCOL = {"_state_lock", "_notify_invalidation"}
DAEMONS = ("core/compaction.py", "route/advisor.py", "core/daemon.py")


def _targets(node):
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            yield target


def test_only_the_cube_writes_its_state():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module == "core/cube.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            writes = [
                target
                for target in _targets(node)
                if isinstance(target, ast.Attribute)
                and target.attr in STATE
                and not (isinstance(target.value, ast.Name) and target.value.id == "self")
            ]
            protocol = isinstance(node, ast.Attribute) and node.attr in PROTOCOL
            if writes or protocol:
                found.append(f"{module}:{node.lineno}")
    assert found == []


def test_one_daemon_loop():
    defined = Counter()
    for module in DAEMONS:
        for node in ast.walk(ast.parse((PACKAGE / module).read_text())):
            if isinstance(node, ast.FunctionDef):
                defined[node.name] += 1
    assert {name: defined[name] for name in ("start", "wake", "_worker")} == {
        "start": 1,
        "wake": 1,
        "_worker": 1,
    }


def test_one_build_path():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.core.parallel")

    callers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "locate_many"
                ):
                    callers.append(f"{module}:{function.name}")
    assert callers == ["core/cube.py:group_rows"]

    pools = [
        path.relative_to(PACKAGE).as_posix()
        for path in sorted((PACKAGE / "core").rglob("*.py"))
        if "ProcessPoolExecutor" in path.read_text()
    ]
    assert pools == []

    assert not hasattr(ChainStore, "build")
    packers = [
        f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}"
        for path in sorted((PACKAGE / "core").rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pack"
    ]
    assert packers == []

    builders = (
        RankingCube.build, FragmentedRankingCube.build_fragments,
        build_sharded, materialize, group_rows, generate,
    )
    assert [
        f.__qualname__ for f in builders
        if "workers" in inspect.signature(f).parameters
    ] == []
