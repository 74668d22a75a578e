"""Span-tree tracing with per-span metric deltas.

A :class:`Tracer` produces a tree of :class:`Span` objects for one unit
of work (typically one top-k query): plan → search → retrieve/evaluate →
delta-merge, mirroring the paper's four execution steps.  Each span
carries

* ``attributes`` — identity facts fixed at creation (k, cuboid names),
* ``counters`` — logical work attributed to the span (candidates popped,
  cold fetches, cache hits),
* automatically measured **watched-metric deltas**: the tracer snapshots
  a configurable set of registry series on span entry and folds the
  difference into ``counters`` on exit, so every span answers "what I/O
  happened under me" straight from the metrics spine — the retrieve span
  shows device reads and buffer misses, attributed buffer / shared-cache
  / cold exactly as the executor saw them.

Durations are recorded (``duration_s``) for
:func:`~repro.obs.export.render_span_tree` reports but deliberately
excluded from golden-trace comparisons — span structure and counter
values are deterministic for a seeded workload, wall time is not (see
:func:`repro.obs.export.canonical_span`).

A tracer instance is **single-threaded**: it keeps a current-span stack.
Concurrent servers create one tracer per query over the shared registry;
note that watched-metric deltas then include neighbours' traffic, so
exact per-span I/O attribution requires serial execution (the regime of
a one-tracer profiling loop and the golden-trace tests).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable, Iterator

from .metrics import MetricsRegistry

#: Registry series folded into every traced span's counters by default.
DEFAULT_WATCHED_METRICS = (
    "storage.device.reads",
    "storage.device.writes",
    "storage.buffer.hits",
    "storage.buffer.misses",
)


class TracingError(Exception):
    """Raised on tracer misuse (closing spans out of order)."""


class Span:
    """One node of a trace tree."""

    __slots__ = (
        "name", "attributes", "counters", "children",
        "duration_s", "error", "_started",
    )

    def __init__(self, name: str, attributes: dict | None = None):
        self.name = name
        self.attributes = dict(attributes or {})
        self.counters: dict[str, int | float] = {}
        self.children: list[Span] = []
        self.duration_s: float | None = None
        self.error: str | None = None
        self._started: float | None = None

    # ------------------------------------------------------------------
    def add(self, counter: str, n: int | float = 1) -> None:
        """Attribute ``n`` units of ``counter`` to this span."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def add_many(self, **counters: int | float) -> None:
        for name, n in counters.items():
            self.add(name, n)

    def child(self, name: str, **attributes) -> "Span":
        """Create an *aggregate* child span (no timing, no auto-deltas).

        Aggregate spans collect counters accumulated incrementally across
        a loop — e.g. the executor's retrieve step, which interleaves with
        evaluation per candidate; wrap each contribution in
        :meth:`Tracer.measure` to attribute watched-metric deltas to it.
        """
        span = Span(name, attributes)
        self.children.append(span)
        return span

    def find(self, name: str) -> "Span | None":
        """First descendant (pre-order, self included) with this name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def num_spans(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, counters={self.counters}, children={len(self.children)})"


class Tracer:
    """Builds span trees over one :class:`MetricsRegistry`.

    Parameters
    ----------
    registry:
        The metrics spine whose series are watched.  Optional: a tracer
        without a registry still builds span trees, just without
        automatic I/O deltas.
    watch:
        Names of registry series snapshotted at span entry/exit; each
        nonzero difference lands in the span's counters under its series
        name (summed across label sets).
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        watch: tuple[str, ...] = DEFAULT_WATCHED_METRICS,
    ):
        self.registry = registry
        self.watch = tuple(watch)
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    @property
    def root(self) -> Span | None:
        """The most recently completed (or started) top-level span."""
        return self.roots[-1] if self.roots else None

    def _watch_values(self) -> dict[str, int | float]:
        if self.registry is None:
            return {}
        return {name: self.registry.total(name) for name in self.watch}

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """Open a timed span; nests under the currently open span."""
        span = Span(name, attributes)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        before = self._watch_values()
        span._started = time.perf_counter()
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.duration_s = time.perf_counter() - span._started
            for metric, value in self._watch_values().items():
                delta = value - before[metric]
                if delta:
                    span.add(metric, delta)
            popped = self._stack.pop()
            if popped is not span:  # pragma: no cover - defensive
                raise TracingError(
                    f"span stack corrupted: closed {popped.name!r} "
                    f"while exiting {span.name!r}"
                )

    @contextmanager
    def measure(self, span: Span | None) -> Iterator[Span | None]:
        """Attribute this block's watched-metric deltas to ``span``.

        The companion of :meth:`Span.child` for aggregate spans: the block
        runs outside any new timed span, but its I/O lands on ``span``.
        ``span=None`` is a no-op, so call sites stay unconditional.
        """
        if span is None:
            yield None
            return
        before = self._watch_values()
        try:
            yield span
        finally:
            for metric, value in self._watch_values().items():
                delta = value - before[metric]
                if delta:
                    span.add(metric, delta)


def adopt_spans(parent: Span | None, spans: Iterable[Span], **extra_attributes):
    """Reparent completed span trees under ``parent``.

    The process serving tier runs per-shard searches in worker processes;
    each worker traces under its own registry and ships its finished root
    spans back with the response.  The front end adopts them under its
    ``shard_merge`` span so one query still renders as one tree in
    :func:`~repro.obs.export.render_span_tree` and the golden-trace
    suite.  ``extra_attributes`` are stamped onto each adopted root (not
    its descendants) — e.g. ``shard=<id>`` when the shipper did not
    label itself.  A ``None``
    parent is a no-op so call sites stay unconditional.
    """
    if parent is None:
        return
    for span in spans:
        if extra_attributes:
            span.attributes.update(extra_attributes)
        parent.children.append(span)


def maybe_span(tracer: Tracer | None, name: str, **attributes):
    """``tracer.span(...)`` or an inert context when tracing is off.

    Lets instrumented code keep a single code path::

        with maybe_span(tracer, "plan") as span:
            ...            # span is None when tracer is None
    """
    if tracer is None:
        return _NULL_SPAN_CM
    return tracer.span(name, **attributes)


class _NullSpanContext:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN_CM = _NullSpanContext()
