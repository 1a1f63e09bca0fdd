"""Exporters: Prometheus text exposition, JSON, and a phase-time tree.

* :class:`Exposition` — the Prometheus text exposition format (version
  0.0.4) of a fixed list of metric families, with ``# HELP`` / ``# TYPE``
  headers and histogram ``_bucket``/``_sum``/``_count`` series.  It
  formats everything but the values once, so the live ``/metrics``
  scrapes of the streaming engine and the daemon pay only for values.
* :func:`to_prometheus_text` — a :class:`~repro.obs.tracer.Tracer`'s
  registry through the same :class:`Exposition`, plus span durations,
  micro-phase timers and sampling-profiler counts as labeled families.
  Suitable for a textfile-collector scrape.
* :func:`to_json` — the tracer's full export payload plus the nested
  phase tree, for machine post-processing and CI artifacts.
* :func:`render_phase_tree` — a human-readable tree of where the wall
  time went, aggregated by span name per nesting level.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Tuple

from ..core.metrics import COUNTER, GAUGE
from .metrics import HISTOGRAM, Family
from .tracer import Tracer

__all__ = [
    "Exposition",
    "phase_lines",
    "phase_tree",
    "render_phase_tree",
    "to_json",
    "to_prometheus_text",
]


# ----------------------------------------------------------------------
# Prometheus text exposition


@lru_cache(maxsize=1024)
def _prom_name(name: str) -> str:
    """Sanitize to the Prometheus metric-name alphabet.

    Memoized: the span and phase families render the same label names
    on every export.
    """
    cleaned = [
        ch if (ch.isalnum() and ch.isascii()) or ch in "_:" else "_"
        for ch in name
    ]
    if cleaned and cleaned[0].isdigit():
        cleaned.insert(0, "_")
    return "".join(cleaned) or "_"


def _prom_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [
        '%s="%s"' % (_prom_name(key), _prom_label_value(str(value)))
        for key, value in sorted(labels.items())
    ]
    return "{%s}" % ",".join(parts)


def _prom_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _header(name: str, help_text: str, kind: str) -> str:
    """The ``# HELP`` (when there is help) and ``# TYPE`` lines."""
    type_line = "# TYPE %s %s" % (name, kind)
    if not help_text:
        return type_line
    return "# HELP %s %s\n%s" % (name, help_text.replace("\n", " "), type_line)


#: Render order of the family kinds (each kind sorted by name, labels).
_KIND_ORDER = {COUNTER: 0, GAUGE: 1, HISTOGRAM: 2}

#: A counter or gauge: the text before its value, and its reader.
_Scalar = Tuple[str, Callable[[], Any]]
#: A histogram: its header (or ``""``), the text before each cumulative
#: bucket count, before ``+Inf``, the sum and the count, and its reader.
_Buckets = Tuple[str, Tuple[str, ...], str, str, str, Callable[[], Any]]


class Exposition:
    """The Prometheus text of a fixed list of metric families.

    Everything but the values is formatted here, once: each name's
    ``# HELP`` / ``# TYPE`` header (written before its first series),
    every series name with its labels, and a histogram's ``le`` bucket
    series (its edges are read once, now).  :meth:`render` reads the
    current values and formats only them.  Counters come first, then
    gauges, then histograms, each kind sorted by name and labels.
    """

    def __init__(self, families: Iterable[Family]) -> None:
        self._scalars: List[_Scalar] = []
        self._histograms: List[_Buckets] = []
        seen = set()
        for family in sorted(
            families, key=lambda f: (_KIND_ORDER[f.kind], f.name, f.labels)
        ):
            name = _prom_name(family.name)
            head = ""
            if name not in seen:
                seen.add(name)
                head = _header(name, family.help, family.kind)
            labels = dict(family.labels)
            if family.kind != HISTOGRAM:
                series = "%s%s " % (name, _prom_labels(labels))
                self._scalars.append(
                    (head + "\n" + series if head else series, family.read)
                )
                continue
            buckets = tuple(
                "%s_bucket%s "
                % (name, _prom_labels(dict(labels, le=_prom_number(edge))))
                for edge in family.read().edges
            )
            self._histograms.append((
                head,
                buckets,
                "%s_bucket%s " % (name, _prom_labels(dict(labels, le="+Inf"))),
                "%s_sum%s " % (name, _prom_labels(labels)),
                "%s_count%s " % (name, _prom_labels(labels)),
                family.read,
            ))

    def render(self, tail: Iterable[str] = ()) -> str:
        """The exposition of the current values, then the *tail* lines."""
        lines: List[str] = []
        append = lines.append
        for prefix, read in self._scalars:
            value = read()
            if value is not None:
                append(prefix + _prom_number(value))
        for head, buckets, inf, total, count, read in self._histograms:
            histogram = read()
            if head:
                append(head)
            cumulative = 0
            for prefix, bucket in zip(buckets, histogram.bucket_counts):
                cumulative += bucket
                append(prefix + str(cumulative))
            append(inf + str(histogram.count))
            append(total + _prom_number(histogram.total))
            append(count + str(histogram.count))
        lines.extend(tail)
        return "\n".join(lines) + "\n"


def _phase_family(
    name: str, help_text: str, rows: Iterable[Tuple[str, str]]
) -> List[str]:
    """A counter family with one ``phase``-labeled series per row of
    ``(phase, formatted value)``."""
    lines = [_header(name, help_text, COUNTER)]
    for phase, value in rows:
        lines.append("%s%s %s" % (name, _prom_labels({"phase": phase}), value))
    return lines


def phase_lines(phases: Dict[str, Tuple[float, int]]) -> List[str]:
    """The micro-phase timer families of ``phase -> (seconds, calls)``."""
    if not phases:
        return []
    ordered = sorted(phases.items())
    return _phase_family(
        "repro_phase_seconds_total",
        "Accumulated wall seconds of hot micro-phases.",
        [(name, _prom_number(total)) for name, (total, __) in ordered],
    ) + _phase_family(
        "repro_phase_calls_total",
        "Accumulated call counts of hot micro-phases.",
        [(name, "%d" % count) for name, (__, count) in ordered],
    )


def to_prometheus_text(tracer: Tracer) -> str:
    """Render the tracer's metrics as Prometheus text exposition."""
    tail: List[str] = []
    # Span durations, aggregated by phase path.
    span_totals = sorted(_span_totals(tracer).items())
    if span_totals:
        tail += _phase_family(
            "repro_span_seconds_total",
            "Wall seconds spent inside each span, by phase path.",
            [(path, _prom_number(total)) for path, (total, __) in span_totals],
        )
        tail += _phase_family(
            "repro_span_calls_total",
            "Number of completed spans per phase path.",
            [(path, "%d" % count) for path, (__, count) in span_totals],
        )
    tail += phase_lines(tracer.phase_times())
    if tracer.profile_samples:
        tail += _phase_family(
            "repro_profile_samples_total",
            "Sampling-profiler hits attributed to the innermost open span.",
            [
                (name, "%d" % count)
                for name, count in sorted(tracer.profile_samples.items())
            ],
        )
    return Exposition(tracer.metrics.families()).render(tail)


# ----------------------------------------------------------------------
# Phase tree


def _span_totals(tracer: Tracer) -> Dict[str, Tuple[float, int]]:
    """``phase path -> (total seconds, span count)`` over all spans.

    The path is the ``/``-joined span-name chain from the root, so two
    ``seed`` spans under different parents stay distinct.
    """
    by_id = {record.span_id: record for record in tracer.spans}

    def path_of(span_id: int) -> str:
        names: List[str] = []
        seen = set()
        current = by_id.get(span_id)
        while current is not None and current.span_id not in seen:
            seen.add(current.span_id)
            names.append(current.name)
            current = by_id.get(current.parent)
        return "/".join(reversed(names))

    totals: Dict[str, Tuple[float, int]] = {}
    for record in tracer.spans:
        path = path_of(record.span_id)
        total, count = totals.get(path, (0.0, 0))
        totals[path] = (total + record.duration, count + 1)
    return totals


def phase_tree(tracer: Tracer) -> Dict[str, Any]:
    """The spans as a nested tree, aggregated by name per level.

    Each node: ``{"name", "total_s", "count", "children": [...]}`` with
    children sorted by descending total time.  Top-level phase timers
    and profiler samples ride along so the JSON artifact is
    self-contained.
    """
    children_of: Dict[int, List[int]] = {}
    by_id = {record.span_id: record for record in tracer.spans}
    for record in tracer.spans:
        parent = record.parent if record.parent in by_id else 0
        children_of.setdefault(parent, []).append(record.span_id)

    def build(parent: int) -> List[Dict[str, Any]]:
        grouped: Dict[str, Dict[str, Any]] = {}
        for span_id in children_of.get(parent, []):
            record = by_id[span_id]
            node = grouped.get(record.name)
            if node is None:
                node = {
                    "name": record.name,
                    "total_s": 0.0,
                    "count": 0,
                    "children": [],
                }
                grouped[record.name] = node
            node["total_s"] += record.duration
            node["count"] += 1
            node["children"].extend(build(span_id))
        merged: Dict[str, Dict[str, Any]] = {}
        ordered: List[Dict[str, Any]] = []
        for node in grouped.values():
            collapsed: Dict[str, Dict[str, Any]] = {}
            for child in node["children"]:
                existing = collapsed.get(child["name"])
                if existing is None:
                    collapsed[child["name"]] = child
                else:
                    existing["total_s"] += child["total_s"]
                    existing["count"] += child["count"]
                    existing["children"].extend(child["children"])
            node["children"] = sorted(collapsed.values(), key=lambda n: -n["total_s"])
            merged[node["name"]] = node
            ordered.append(node)
        return sorted(ordered, key=lambda n: -n["total_s"])

    return {
        "roots": build(0),
        "phases": {
            name: {"total_s": total, "count": count}
            for name, (total, count) in tracer.phase_times().items()
        },
        "profile_samples": dict(tracer.profile_samples),
    }


def render_phase_tree(tracer: Tracer) -> str:
    """Human-readable phase-time tree (``repro trace`` default output)."""
    tree = phase_tree(tracer)
    roots = tree["roots"]
    grand_total = sum(node["total_s"] for node in roots) or 1.0
    lines: List[str] = []

    def label(node: Dict[str, Any], width: int) -> str:
        percent = 100.0 * node["total_s"] / grand_total
        suffix = " x%d" % node["count"] if node["count"] > 1 else ""
        return "%-*s %9.3fs %5.1f%%%s" % (
            width, node["name"], node["total_s"], percent, suffix
        )

    def render(node: Dict[str, Any], prefix: str, last: bool) -> None:
        branch = "└─ " if last else "├─ "
        lines.append(prefix + branch + label(node, 24))
        child_prefix = prefix + ("   " if last else "│  ")
        for index, child in enumerate(node["children"]):
            render(child, child_prefix, index == len(node["children"]) - 1)

    for root in roots:
        lines.append(label(root, 27))
        for child_index, child in enumerate(root["children"]):
            render(child, "", child_index == len(root["children"]) - 1)

    phases = tree["phases"]
    if phases:
        lines.append("")
        lines.append("hot micro-phases (accumulated):")
        for name, entry in sorted(phases.items(), key=lambda item: -item[1]["total_s"]):
            lines.append(
                "  %-24s %9.3fs over %d calls"
                % (name, entry["total_s"], entry["count"])
            )
    samples = tree["profile_samples"]
    if samples:
        total_samples = sum(samples.values()) or 1
        lines.append("")
        lines.append("profiler samples (REPRO_PROFILE):")
        for name, count in sorted(samples.items(), key=lambda kv: -kv[1]):
            lines.append(
                "  %-24s %6d (%5.1f%%)" % (name, count, 100.0 * count / total_samples)
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# JSON


def to_json(tracer: Tracer, indent: int = 2) -> str:
    """The full trace payload plus the nested phase tree, as JSON."""
    payload = tracer.export()
    payload["phase_tree"] = phase_tree(tracer)
    return json.dumps(payload, indent=indent, sort_keys=False) + "\n"
