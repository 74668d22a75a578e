"""Repo-wide pytest hooks.

``--update-golden`` re-blesses golden snapshot files instead of comparing
against them (see ``tests/obs/test_golden_traces.py``).  Run it after an
*intentional* executor or tracing change, then review the diff of
``tests/obs/golden/`` like any other code change.

The ``timeout`` marker arms a stdlib ``SIGALRM`` watchdog around a test
(``@pytest.mark.timeout(seconds)``) — no third-party plugin needed.  The
``REPRO_TEST_TIMEOUT`` environment variable sets a default budget for
*every* test (seconds; ``0``/unset disables); CI and ``scripts/tier1.sh``
set it so a wedged worker process fails the one test that hung instead
of stalling the whole run.  On expiry the watchdog dumps every thread's
stack (``faulthandler``) before failing, so hangs are diagnosable from
the CI log alone.
"""

import faulthandler
import os
import signal
import sys
import threading

import pytest


def _timeout_budget(item) -> float:
    marker = item.get_closest_marker("timeout")
    if marker is not None and marker.args:
        return float(marker.args[0])
    return float(os.environ.get("REPRO_TEST_TIMEOUT", "0") or 0)


@pytest.fixture(autouse=True)
def _alarm_timeout(request):
    """Arm a per-test wall-clock budget via ``signal.setitimer``."""
    budget = _timeout_budget(request.node)
    if (
        budget <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum, frame):
        faulthandler.dump_traceback(file=sys.stderr)
        pytest.fail(
            f"test exceeded its {budget:g}s timeout budget", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite golden snapshot files from the current run",
    )


@pytest.fixture
def update_golden(request) -> bool:
    return request.config.getoption("--update-golden")
