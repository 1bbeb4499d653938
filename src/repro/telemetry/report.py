"""Render a registry as ``telemetry.json`` and a markdown run report.

The JSON document is the machine artifact (one per instrumented run);
the markdown report is the human view the ``repro telemetry``
subcommand prints.  Neither feeds back into the pipeline: deleting a
telemetry file changes nothing about the dataset it described.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.util.text import format_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.metrics import MetricsRegistry

#: Format version stamped into every telemetry document.
TELEMETRY_VERSION = 1


def telemetry_document(
    registry: "MetricsRegistry", meta: dict | None = None
) -> dict:
    """The full JSON-able telemetry document for one run."""
    return {"version": TELEMETRY_VERSION, "meta": dict(meta or {}), **registry.export()}


def write_telemetry_json(path, registry: "MetricsRegistry", meta=None) -> None:
    """Write :func:`telemetry_document` to ``path`` (pretty-printed)."""
    document = telemetry_document(registry, meta)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _histogram_sketch(data: dict) -> str:
    """A compact one-line rendering of a histogram's occupied buckets."""
    bounds = data["bounds"]
    labels = [f"<={bound:g}" for bound in bounds] + [f">{bounds[-1]:g}"]
    occupied = [
        f"{label}:{count}"
        for label, count in zip(labels, data["counts"])
        if count
    ]
    return " ".join(occupied) if occupied else "(empty)"


def run_report_markdown(document: dict) -> str:
    """Render one telemetry document as a markdown run report."""
    parts: list[str] = ["# Telemetry run report", ""]
    meta = document.get("meta", {})
    if meta:
        parts.append("## Run")
        parts.append("")
        parts.append(
            format_table(
                ["key", "value"],
                [[key, meta[key]] for key in sorted(meta)],
            )
        )
        parts.append("")

    counters = document.get("counters", {})
    parts.append("## Counters")
    parts.append("")
    if counters:
        parts.append(
            format_table(
                ["counter", "value"],
                [[name, counters[name]] for name in sorted(counters)],
            )
        )
    else:
        parts.append("(none)")
    parts.append("")

    gauges = document.get("gauges", {})
    if gauges:
        parts.append("## Gauges")
        parts.append("")
        parts.append(
            format_table(
                ["gauge", "value"],
                [[name, gauges[name]] for name in sorted(gauges)],
            )
        )
        parts.append("")

    histograms = document.get("histograms", {})
    if histograms:
        parts.append("## Histograms")
        parts.append("")
        rows = []
        for name in sorted(histograms):
            data = histograms[name]
            rows.append(
                [
                    name,
                    data["count"],
                    f"{data['sum']:g}",
                    _histogram_sketch(data),
                ]
            )
        parts.append(format_table(["histogram", "n", "sum", "buckets"], rows))
        parts.append("")

    spans = document.get("spans", {})
    if spans:
        parts.append("## Spans")
        parts.append("")
        ordered = sorted(
            spans.items(), key=lambda item: item[1]["total_s"], reverse=True
        )
        rows = []
        for path, stats in ordered:
            mean_ms = 1000.0 * stats["total_s"] / stats["count"]
            rows.append(
                [
                    path,
                    stats["count"],
                    f"{stats['total_s'] * 1000.0:.1f}",
                    f"{mean_ms:.2f}",
                    f"{(stats['max_s'] or 0.0) * 1000.0:.2f}",
                ]
            )
        parts.append(
            format_table(
                ["span", "count", "total ms", "mean ms", "max ms"], rows
            )
        )
        parts.append("")

    profiles = document.get("profiles", {})
    for name in sorted(profiles):
        parts.append(f"## Profile: {name}")
        parts.append("")
        parts.append("```")
        parts.append(profiles[name].rstrip())
        parts.append("```")
        parts.append("")

    return "\n".join(parts).rstrip() + "\n"
