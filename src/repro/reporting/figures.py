"""Text renderings of the regenerated figures.

Terminal-friendly charts built from an experiment's structured rows —
the closest offline equivalent of the paper's plots.  ``render_figure``
picks a sensible default view for any experiment; the lower-level
helpers can be pointed at specific columns.
"""

from __future__ import annotations

import math

from repro.experiments.base import ExperimentResult
from repro.util.text import ascii_bar

#: Width of the bar area in characters.
BAR_WIDTH = 44


def _is_number(value: object) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, str):
        try:
            float(value)
        except ValueError:
            return False
        return True
    return False


def _as_number(value: object) -> float:
    return float(value)  # type: ignore[arg-type]


def numeric_columns(result: ExperimentResult) -> list[int]:
    """Indexes of columns whose every value is numeric."""
    if not result.rows:
        return []
    columns = []
    for index in range(len(result.headers)):
        values = [row[index] for row in result.rows if index < len(row)]
        if values and all(_is_number(v) for v in values):
            columns.append(index)
    return columns


def bar_chart(
    result: ExperimentResult,
    label_column: int,
    value_column: int,
    log_scale: bool = False,
    max_rows: int = 40,
) -> str:
    """One horizontal bar per row for the chosen columns."""
    rows = result.rows[:max_rows]
    if not rows:
        return "(no data)"
    labels = [str(row[label_column]) for row in rows]
    raw_values = [_as_number(row[value_column]) for row in rows]
    if log_scale:
        plotted = [math.log10(v + 1) for v in raw_values]
    else:
        plotted = raw_values
    maximum = max(plotted) if plotted else 0.0
    label_width = max(len(label) for label in labels)
    header = (
        f"{result.headers[value_column]}"
        + (" (log scale)" if log_scale else "")
    )
    lines = [f"[{result.experiment_id}] {header}"]
    for label, shown, raw in zip(labels, plotted, raw_values):
        bar = ascii_bar(shown, maximum, BAR_WIDTH)
        lines.append(f"{label.ljust(label_width)} |{bar} {raw:g}")
    if len(result.rows) > max_rows:
        lines.append(f"... ({len(result.rows) - max_rows} more rows)")
    return "\n".join(lines)


#: Shading ramp for ASCII heatmaps (low → high values).
_HEAT_RAMP = " .:-=+*#%@"


def ascii_heatmap(
    matrix, max_cells: int = 48, title: str = ""
) -> str:
    """A downsampled ASCII heatmap of a square matrix (Figure 5's view).

    Values are expected in [0, 1]; each cell becomes one character from
    a ten-step shading ramp.  Large matrices are block-averaged down to
    at most ``max_cells`` per side.
    """
    import numpy as np

    values = np.asarray(matrix, dtype=float)
    n = values.shape[0]
    if n == 0:
        return "(empty matrix)"
    step = max(1, math.ceil(n / max_cells))
    size = math.ceil(n / step)
    blocks = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            block = values[i * step : (i + 1) * step, j * step : (j + 1) * step]
            blocks[i, j] = float(block.mean())
    lines = []
    if title:
        lines.append(title)
    ramp_top = len(_HEAT_RAMP) - 1
    for row in blocks:
        lines.append(
            "".join(
                _HEAT_RAMP[min(ramp_top, int(value * ramp_top + 0.5))]
                for value in row
            )
        )
    lines.append(f"(shading: ' '=0.0 … '@'=1.0; {n}x{n} → {size}x{size})")
    return "\n".join(lines)


#: Per-experiment default views: (value column header, log scale).
_DEFAULT_VIEWS: dict[str, tuple[str, bool]] = {
    "fig01": ("non-state total", False),
    "fig02": ("sessions", False),
    "fig03a": ("sessions", False),
    "fig03b": ("sessions", False),
    "fig04a": ("sessions", False),
    "fig04b": ("sessions", False),
    "fig06": ("file sessions", False),
    "fig10": ("3245gs5662d34", False),
    "fig11": ("phil logins", True),
    "fig12": ("mean sessions/day", True),
    "fig13": ("mdrfckr-initial", True),
    "fig15": ("sessions", False),
    "fig16": ("unique cmds (file missing)", False),
    "ext_sensor_coverage": ("ssh sessions", False),
}


def render_figure(result: ExperimentResult) -> str:
    """A default chart for any experiment (empty string if impossible)."""
    numeric = numeric_columns(result)
    if not numeric:
        return ""
    header, log_scale = _DEFAULT_VIEWS.get(result.experiment_id, (None, False))
    if header is not None and header in result.headers:
        column = result.headers.index(header)
        if column not in numeric:
            column = numeric[0]
    else:
        column = numeric[0]
    return bar_chart(result, 0, column, log_scale=log_scale)
