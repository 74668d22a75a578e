#!/usr/bin/env python
"""Reachability audit for ``src/repro``, stdlib-only.

Runs three entry sets — the paper figures (``python -m repro.bench all
--tuples 3000 --queries 2``), the six ``examples/*.py`` scripts, and the
ledger smoke run (``benchmarks/ledger/run.py run --smoke``) — each as its
own interpreter, with a temporary ``sitecustomize`` on ``PYTHONPATH``
that installs ``sys.setprofile`` / ``threading.setprofile``.  Every
interpreter those commands start (ledger children, spawned shard
workers) imports it too, so their calls count.  A process appends each
``repro`` code object it sees called to its own file as it first sees
it, so a worker that is killed still reports.

Prints, per module, the outermost functions (module functions and class
methods; a nested function counts with the one that holds it) that no
entry set calls, with their line counts, then the total.  What is listed
is reached only by tests, or not at all.  It takes minutes, so it is
run by hand, not gated.

Usage: ``python scripts/reach.py``
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"


def entry_sets(tmp: Path) -> dict[str, list[list[str]]]:
    """The three entry sets' commands; the ledger writes its sheet to
    ``tmp``."""
    return {
        "figures": [
            [sys.executable, "-m", "repro.bench", "all", "--tuples", "3000",
             "--queries", "2"],
        ],
        "examples": [
            [sys.executable, str(path)]
            for path in sorted((REPO / "examples").glob("*.py"))
        ],
        "ledger": [
            [sys.executable, "benchmarks/ledger/run.py", "run", "--smoke",
             "--out", str(tmp / "ledger.json")],
        ],
    }


SITECUSTOMIZE = '''
import os, sys, threading

_PREFIX = {prefix!r}
_OUT = os.path.join({out!r}, "%d.txt" % os.getpid())
_seen = set()


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if code in _seen:
        return
    _seen.add(code)
    if code.co_filename.startswith(_PREFIX):
        with open(_OUT, "a") as out:
            out.write("%s\\t%d\\n" % (code.co_filename, code.co_firstlineno))


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def outermost_functions(path: Path):
    """``(qualified name, first line, line count)`` per function not
    nested in another function; the first line is the first decorator's,
    as a code object's ``co_firstlineno`` is."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found.append(
                    (scope + child.name, first, child.end_lineno - first + 1)
                )
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.")

    visit(ast.parse(path.read_text()), "")
    return found


def run_entry_sets(tmp: Path, site: Path) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(site), str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    for name, commands in entry_sets(tmp).items():
        for command in commands:
            print(f"reach: [{name}] {' '.join(command[1:])}", flush=True)
            result = subprocess.run(
                command, cwd=REPO, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            if result.returncode != 0:
                print(f"reach: exit {result.returncode}; its calls still count")
                print(result.stderr[-2000:])


def called(out: Path) -> set[tuple[str, int]]:
    seen = set()
    for record in out.glob("*.txt"):
        for line in record.read_text().splitlines():
            filename, first = line.rsplit("\t", 1)
            seen.add((filename, int(first)))
    return seen


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as name:
        tmp = Path(name)
        site, out = tmp / "site", tmp / "calls"
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(prefix=str(PACKAGE) + os.sep, out=str(out))
        )
        run_entry_sets(tmp, site)
        seen = called(out)

    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        unreached = [
            (name, lines)
            for name, first, lines in outermost_functions(path)
            if (filename, first) not in seen
        ]
        if not unreached:
            continue
        lines = sum(count for _name, count in unreached)
        total += lines
        print(f"{path.relative_to(PACKAGE).as_posix()}  {lines}")
        for name, count in unreached:
            print(f"    {name}  {count}")
    print(f"reach: {total} lines in outermost functions no entry set calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
