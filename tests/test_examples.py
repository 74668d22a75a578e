"""Every script under ``examples/`` runs to completion.

The examples are the library's front door and the only callers of some
of its surface, so a deleted or renamed name breaks them first.  Each
script runs in-process as ``__main__`` with its output captured; the
scripts write no files.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert capsys.readouterr().out.strip()
