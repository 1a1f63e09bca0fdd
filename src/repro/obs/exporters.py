"""Exporters: Prometheus text exposition, JSON, and a phase-time tree.

Three renderings of one :class:`~repro.obs.tracer.Tracer`:

* :func:`to_prometheus_text` — the Prometheus text exposition format
  (version 0.0.4): metric families with ``# HELP`` / ``# TYPE``
  headers, histogram ``_bucket``/``_sum``/``_count`` series, plus span
  durations, micro-phase timers and sampling-profiler counts as labeled
  families.  Suitable for a textfile-collector scrape.
* :func:`to_json` — the tracer's full export payload plus the nested
  phase tree, for machine post-processing and CI artifacts.
* :func:`render_phase_tree` — a human-readable tree of where the wall
  time went, aggregated by span name per nesting level.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, List, Tuple

from .tracer import Tracer

__all__ = [
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

    Memoized: a scrape renders the same few hundred family and label
    names every time, and sanitizing them character by character was
    half the cost of a ``/metrics`` scrape.
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


def to_prometheus_text(tracer: Tracer) -> str:
    """Render the tracer's metrics as Prometheus text exposition."""
    lines: List[str] = []
    seen_headers = set()

    def header(name: str, help_text: str, kind: str) -> None:
        if name in seen_headers:
            return
        seen_headers.add(name)
        if help_text:
            lines.append("# HELP %s %s" % (name, help_text.replace("\n", " ")))
        lines.append("# TYPE %s %s" % (name, kind))

    registry = tracer.metrics
    for counter in registry.counters():
        name = _prom_name(counter.name)
        header(name, counter.help, "counter")
        lines.append(
            "%s%s %s"
            % (name, _prom_labels(dict(counter.labels)), _prom_number(counter.value))
        )
    for gauge in registry.gauges():
        name = _prom_name(gauge.name)
        header(name, gauge.help, "gauge")
        lines.append(
            "%s%s %s"
            % (name, _prom_labels(dict(gauge.labels)), _prom_number(gauge.value))
        )
    for histogram in registry.histograms():
        name = _prom_name(histogram.name)
        header(name, histogram.help, "histogram")
        labels = dict(histogram.labels)
        cumulative = 0
        for edge, bucket in zip(histogram.edges, histogram.bucket_counts):
            cumulative += bucket
            bucket_labels = dict(labels)
            bucket_labels["le"] = _prom_number(edge)
            lines.append(
                "%s_bucket%s %d" % (name, _prom_labels(bucket_labels), cumulative)
            )
        inf_labels = dict(labels)
        inf_labels["le"] = "+Inf"
        lines.append(
            "%s_bucket%s %d" % (name, _prom_labels(inf_labels), histogram.count)
        )
        lines.append(
            "%s_sum%s %s" % (name, _prom_labels(labels), _prom_number(histogram.total))
        )
        lines.append("%s_count%s %d" % (name, _prom_labels(labels), histogram.count))

    # Span durations, aggregated by phase path.
    span_totals = _span_totals(tracer)
    if span_totals:
        header(
            "repro_span_seconds_total",
            "Wall seconds spent inside each span, by phase path.",
            "counter",
        )
        for path, (total, __) in sorted(span_totals.items()):
            lines.append(
                "repro_span_seconds_total%s %s"
                % (_prom_labels({"phase": path}), _prom_number(total))
            )
        header(
            "repro_span_calls_total",
            "Number of completed spans per phase path.",
            "counter",
        )
        for path, (__, count) in sorted(span_totals.items()):
            lines.append(
                "repro_span_calls_total%s %d" % (_prom_labels({"phase": path}), count)
            )

    phases = tracer.phase_times()
    if phases:
        header(
            "repro_phase_seconds_total",
            "Accumulated wall seconds of hot micro-phases.",
            "counter",
        )
        for name_, (total, __) in sorted(phases.items()):
            lines.append(
                "repro_phase_seconds_total%s %s"
                % (_prom_labels({"phase": name_}), _prom_number(total))
            )
        header(
            "repro_phase_calls_total",
            "Accumulated call counts of hot micro-phases.",
            "counter",
        )
        for name_, (__, count) in sorted(phases.items()):
            lines.append(
                "repro_phase_calls_total%s %d" % (_prom_labels({"phase": name_}), count)
            )

    if tracer.profile_samples:
        header(
            "repro_profile_samples_total",
            "Sampling-profiler hits attributed to the innermost open span.",
            "counter",
        )
        for name_, count in sorted(tracer.profile_samples.items()):
            lines.append(
                "repro_profile_samples_total%s %d"
                % (_prom_labels({"phase": name_}), count)
            )

    return "\n".join(lines) + "\n"


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
