"""The pass-and-loop machinery the cube's maintainers share."""

from __future__ import annotations

import threading
import time


class MaintenanceDaemon:
    """Serialized maintenance passes, foreground or on a daemon thread.

    :class:`~repro.core.compaction.CubeCompactor` and
    :class:`~repro.route.advisor.CubeAdvisor` subclass it: they set
    :attr:`error` (what ``start`` raises after ``close``),
    :attr:`thread_name` and :attr:`metric_prefix`, and implement
    ``_run()`` (one pass, returning a report with ``swapped``,
    ``aborted`` and ``wall_s`` fields), ``_pending()`` (whether the worker
    has work without a :meth:`wake`) and ``_record_swap(report)`` (a
    swapping pass's own counters).  Every pass counts in
    ``<metric_prefix>.runs`` and in one of ``.swaps`` / ``.aborts`` /
    ``.noops``; a pass that raises on the thread is kept in
    ``last_error`` and counted in ``.errors``, and the loop goes on.
    """

    error: type[Exception]
    thread_name: str
    metric_prefix: str

    def __init__(self, registry=None):
        self.registry = registry
        #: serializes passes (foreground calls vs the background worker)
        self._run_lock = threading.Lock()
        self._cond = threading.Condition()
        self._thread: threading.Thread | None = None
        self._closed = False
        self._wake_requested = False
        self.runs = 0
        self.last_report = None
        self.last_error: BaseException | None = None

    def _pass(self):
        with self._run_lock:
            started = time.perf_counter()
            report = self._run()
            report.wall_s = time.perf_counter() - started
            self.runs += 1
            self.last_report = report
            if self.registry is not None:
                self.registry.counter(f"{self.metric_prefix}.runs").inc()
                outcome = "swaps" if report.swapped else (
                    "aborts" if report.aborted else "noops"
                )
                self.registry.counter(f"{self.metric_prefix}.{outcome}").inc()
                if report.swapped:
                    self._record_swap(report)
            return report

    def start(self):
        """Start the background worker thread (idempotent)."""
        with self._cond:
            if self._closed:
                raise self.error(f"{self.thread_name} is closed")
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._worker, name=self.thread_name, daemon=True
                )
                self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def wake(self) -> None:
        """Ask the background worker for a pass now, pending or not."""
        with self._cond:
            self._wake_requested = True
            self._cond.notify_all()

    def close(self, wait: bool = True) -> None:
        """Stop the background worker.  Idempotent; safe without start."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            thread = self._thread
        if wait and thread is not None:
            thread.join()

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._closed and not (
                    self._wake_requested or self._pending()
                ):
                    self._cond.wait(timeout=0.05)
                if self._closed:
                    return
                self._wake_requested = False
            try:
                self._pass()
            except BaseException as exc:  # noqa: BLE001 - worker must survive
                self.last_error = exc
                if self.registry is not None:
                    self.registry.counter(f"{self.metric_prefix}.errors").inc()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
