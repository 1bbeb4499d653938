"""Report rendering: markdown comparison documents, text tables."""

from repro.reporting.figures import bar_chart, numeric_columns, render_figure
from repro.reporting.markdown import (
    PAPER_EXPECTATIONS,
    experiments_markdown,
    result_to_markdown,
)

__all__ = [
    "bar_chart",
    "numeric_columns",
    "render_figure",
    "PAPER_EXPECTATIONS",
    "experiments_markdown",
    "result_to_markdown",
]
