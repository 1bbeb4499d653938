"""Plain-text rendering helpers shared by experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as an aligned monospace table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.extend([0] * (index + 1 - len(widths)))
            widths[index] = max(widths[index], len(cell))
    def render(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[i]) for i, cell in enumerate(cells)]
        return "  ".join(padded).rstrip()
    lines = [render(list(headers)), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in materialized)
    return "\n".join(lines)


def ascii_bar(value: float, maximum: float, width: int = 40) -> str:
    """Render a single horizontal bar scaled to ``maximum``."""
    if maximum <= 0:
        return ""
    filled = int(round(width * max(0.0, min(value, maximum)) / maximum))
    return "#" * filled


def ascii_series(
    labels: Sequence[str], values: Sequence[float], width: int = 40
) -> str:
    """Render a labelled bar chart, one bar per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    maximum = max(values, default=0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines = []
    for label, value in zip(labels, values):
        bar = ascii_bar(value, maximum, width)
        lines.append(f"{label.ljust(label_width)} |{bar} {value:g}")
    return "\n".join(lines)


def percentage(part: float, whole: float) -> float:
    """Safe percentage with zero denominator handling."""
    if whole == 0:
        return 0.0
    return 100.0 * part / whole
