"""Unit tests of the ledger itself (not collected by tier-1's testpaths):

    python -m pytest benchmarks/ledger/tests
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
