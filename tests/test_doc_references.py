"""The README, DESIGN and ROADMAP name only code that exists.

Docs drift when code is deleted: a section keeps advertising a switch or
a kernel that is gone.  Two kinds of reference are checkable, so they
are checked:

* every dotted ``repro.x.y`` name must import as a module or resolve as
  an attribute of one (``repro.serve.cache.BlockCache``);
* every ``path.py:N`` (or ``path.py:N-M``) reference must name an
  existing file, relative to the repository root, ``src/`` or
  ``src/repro/``, with at least N (or M) lines.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md", "ROADMAP.md")

DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")
FILE_LINE = re.compile(r"([\w./-]+\.py):(\d+)(?:-(\d+))?")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute chain on one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def _line_count(relative: str) -> int | None:
    """Lines in the first of root / src / src/repro holding ``relative``."""
    for base in (ROOT, ROOT / "src", ROOT / "src" / "repro"):
        path = base / relative
        if path.is_file():
            return len(path.read_text().splitlines())
    return None


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    text = (ROOT / doc).read_text()
    unresolved = sorted(
        {name for name in DOTTED.findall(text) if not _resolves(name)}
    )
    assert unresolved == [], f"{doc} names code that does not exist"


@pytest.mark.parametrize("doc", DOCS)
def test_file_line_references_exist(doc):
    text = (ROOT / doc).read_text()
    broken = []
    for match in FILE_LINE.finditer(text):
        path, first, last = match.groups()
        lines = _line_count(path)
        if lines is None or lines < int(last or first):
            broken.append(match.group(0))
    assert broken == [], f"{doc} points at lines that do not exist"


def test_the_checkers_catch_a_stale_reference():
    assert _resolves("repro.serve.cache.BlockCache")
    assert not _resolves("repro.vector.kernels.block_bounds")
    assert not _resolves("repro.no_such_module")
    assert _line_count("core/executor.py") > 1
    assert _line_count("core/no_such_file.py") is None
