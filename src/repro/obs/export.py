"""Exporters for the observability layer.

Three output shapes, all zero-dependency:

* **JSON** — :func:`registry_to_dict` / :func:`to_json` give the full
  registry (counters, gauges, histogram summaries) as one document.
* **Line protocol** — :func:`to_line_protocol` emits one
  ``name,label=value field=...`` line per series (Influx-flavoured), for
  piping into anything that speaks a metrics wire format.
* **Span trees** — :func:`span_to_dict` (lossless), :func:`canonical_span`
  (deterministic subset: structure + counters, **no latencies**, the form
  golden-trace tests snapshot) and :func:`render_span_tree` (the ASCII
  profile of one query: pass one :class:`~repro.obs.tracing.Tracer` to
  every ``execute`` call and render each of its ``roots``).
"""

from __future__ import annotations

import json

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Span


# ----------------------------------------------------------------------
# registry export
# ----------------------------------------------------------------------
def registry_to_dict(registry: MetricsRegistry) -> dict:
    """The whole registry as one JSON-ready document."""
    counters: dict[str, int | float] = {}
    gauges: dict[str, int | float] = {}
    histograms: dict[str, dict] = {}
    for instrument in registry.series():
        if isinstance(instrument, Histogram):
            histograms[instrument.key] = {
                "count": instrument.count,
                "sum": instrument.sum,
                "mean": instrument.mean,
                "min": instrument.min if instrument.count else None,
                "max": instrument.max if instrument.count else None,
                "p50": instrument.percentile(0.50),
                "p95": instrument.percentile(0.95),
            }
        elif isinstance(instrument, Gauge):
            gauges[instrument.key] = instrument.value
        elif isinstance(instrument, Counter):
            counters[instrument.key] = instrument.value
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def to_json(registry: MetricsRegistry, indent: int | None = 2) -> str:
    return json.dumps(registry_to_dict(registry), indent=indent, sort_keys=True)


def to_line_protocol(registry: MetricsRegistry) -> str:
    """One line per series: ``name,label=value value=N`` (histograms emit
    ``count``/``sum`` fields instead of ``value``)."""
    lines = []
    for instrument in registry.series():
        ident = instrument.name
        if instrument.labels:
            ident += "," + ",".join(f"{k}={v}" for k, v in instrument.labels)
        if isinstance(instrument, Histogram):
            lines.append(f"{ident} count={instrument.count},sum={instrument.sum}")
        else:
            lines.append(f"{ident} value={instrument.value}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# span export
# ----------------------------------------------------------------------
def span_to_dict(span: Span, include_timing: bool = True) -> dict:
    """Lossless (optionally timing-free) dict form of a span tree."""
    doc: dict = {"name": span.name}
    if span.attributes:
        doc["attributes"] = dict(span.attributes)
    if span.counters:
        doc["counters"] = dict(span.counters)
    if span.error is not None:
        doc["error"] = span.error
    if include_timing and span.duration_s is not None:
        doc["duration_s"] = span.duration_s
    if span.children:
        doc["children"] = [span_to_dict(c, include_timing) for c in span.children]
    return doc


def _json_stable(value):
    """Normalize a value so it survives a JSON round trip unchanged
    (tuples become lists, mapping keys become strings)."""
    if isinstance(value, tuple):
        return [_json_stable(v) for v in value]
    if isinstance(value, list):
        return [_json_stable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_stable(v) for k, v in value.items()}
    return value


def canonical_span(span: Span) -> dict:
    """Deterministic snapshot form: structure + counters, no latencies.

    This is what the golden-trace tests persist: span names, attributes,
    counter values (sorted keys) and the child list — everything a seeded
    workload reproduces bit-for-bit, nothing wall-clock-dependent.
    Values are JSON-normalized (tuples to lists) so a snapshot compares
    equal to its own file round trip.
    """
    doc: dict = {"name": span.name}
    if span.attributes:
        doc["attributes"] = {
            k: _json_stable(span.attributes[k]) for k in sorted(span.attributes)
        }
    if span.counters:
        doc["counters"] = {k: span.counters[k] for k in sorted(span.counters)}
    if span.error is not None:
        doc["error"] = span.error
    if span.children:
        doc["children"] = [canonical_span(c) for c in span.children]
    return doc


def render_span_tree(span: Span, include_timing: bool = True) -> str:
    """ASCII tree of one span, counters inline — the profile report."""
    lines: list[str] = []
    _render(span, "", True, True, lines, include_timing)
    return "\n".join(lines)


def _render(
    span: Span,
    prefix: str,
    is_last: bool,
    is_root: bool,
    lines: list[str],
    include_timing: bool,
) -> None:
    connector = "" if is_root else ("└─ " if is_last else "├─ ")
    parts = [span.name]
    if span.attributes:
        attrs = ", ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        parts.append(f"[{attrs}]")
    if include_timing and span.duration_s is not None:
        parts.append(f"({span.duration_s * 1000.0:.3f} ms)")
    if span.error:
        parts.append(f"!{span.error}")
    lines.append(prefix + connector + " ".join(parts))
    child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
    if span.counters:
        stem = child_prefix + ("│  " if span.children else "   ")
        for key in sorted(span.counters):
            value = span.counters[key]
            lines.append(f"{stem}· {key} = {value}")
    for i, child in enumerate(span.children):
        _render(child, child_prefix, i == len(span.children) - 1, False, lines, include_timing)


def span_diff(expected: dict, actual: dict, path: str = "") -> list[str]:
    """Readable differences between two canonical span dicts.

    Used by the golden-trace tests to fail with *which* span and *which*
    counter drifted, not a wall of JSON.
    """
    diffs: list[str] = []
    here = path + "/" + expected.get("name", "?")
    if expected.get("name") != actual.get("name"):
        diffs.append(f"{here}: span name {expected.get('name')!r} != {actual.get('name')!r}")
        return diffs
    for field in ("attributes", "counters"):
        exp, act = expected.get(field, {}), actual.get(field, {})
        for key in sorted(set(exp) | set(act)):
            if exp.get(key) != act.get(key):
                diffs.append(
                    f"{here}: {field[:-1]} {key!r} expected {exp.get(key)!r}, "
                    f"got {act.get(key)!r}"
                )
    if expected.get("error") != actual.get("error"):
        diffs.append(
            f"{here}: error {expected.get('error')!r} != {actual.get('error')!r}"
        )
    exp_children = expected.get("children", [])
    act_children = actual.get("children", [])
    if len(exp_children) != len(act_children):
        diffs.append(
            f"{here}: {len(exp_children)} child span(s) expected, "
            f"got {len(act_children)} "
            f"(expected {[c.get('name') for c in exp_children]}, "
            f"got {[c.get('name') for c in act_children]})"
        )
    for exp_child, act_child in zip(exp_children, act_children):
        diffs.extend(span_diff(exp_child, act_child, here))
    return diffs
