"""Text-figure renderers."""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentResult
from repro.reporting.figures import (
    bar_chart,
    numeric_columns,
    render_figure,
)


@pytest.fixture
def monthly_result():
    return ExperimentResult(
        experiment_id="fig10",
        title="t",
        headers=["month", "3245gs5662d34", "1234"],
        rows=[["2023-01", 10, 3], ["2023-02", 20, 4], ["2023-03", 0, 5]],
        notes=[],
    )


class TestNumericColumns:
    def test_detects_numeric(self, monthly_result):
        assert numeric_columns(monthly_result) == [1, 2]

    def test_numeric_strings_count(self):
        result = ExperimentResult("x", "t", ["a", "b"], [["m", "1.5"]], [])
        assert numeric_columns(result) == [1]

    def test_mixed_column_excluded(self):
        result = ExperimentResult(
            "x", "t", ["a", "b"], [["m", "1.5"], ["n", "-"]], []
        )
        assert numeric_columns(result) == []

    def test_empty(self):
        assert numeric_columns(ExperimentResult("x", "t", ["a"], [], [])) == []


class TestBarChart:
    def test_basic(self, monthly_result):
        chart = bar_chart(monthly_result, 0, 1)
        lines = chart.splitlines()
        assert lines[0].startswith("[fig10]")
        assert "2023-02" in chart
        # the maximum row gets the longest bar
        feb = next(line for line in lines if line.startswith("2023-02"))
        jan = next(line for line in lines if line.startswith("2023-01"))
        assert feb.count("#") > jan.count("#")

    def test_zero_row_empty_bar(self, monthly_result):
        chart = bar_chart(monthly_result, 0, 1)
        march = next(
            line for line in chart.splitlines() if line.startswith("2023-03")
        )
        assert "#" not in march

    def test_log_scale_label(self, monthly_result):
        chart = bar_chart(monthly_result, 0, 1, log_scale=True)
        assert "(log scale)" in chart

    def test_truncation(self, monthly_result):
        monthly_result.rows = [["m", i] for i in range(60)]
        chart = bar_chart(monthly_result, 0, 1, max_rows=10)
        assert "more rows" in chart

    def test_empty_rows(self):
        result = ExperimentResult("x", "t", ["a", "b"], [], [])
        assert bar_chart(result, 0, 1) == "(no data)"


class TestRenderFigure:
    def test_default_view_used(self, monthly_result):
        chart = render_figure(monthly_result)
        assert "3245gs5662d34" in chart

    def test_no_numeric_columns(self):
        result = ExperimentResult("x", "t", ["a"], [["only text"]], [])
        assert render_figure(result) == ""

    def test_all_experiments_renderable(self, results):
        rendered = 0
        for result in results.values():
            chart = render_figure(result)
            assert isinstance(chart, str)
            if chart:
                rendered += 1
        assert rendered >= 10  # most figures have a numeric view


class TestHeatmap:
    def test_shape_and_ramp(self):
        import numpy as np

        from repro.reporting.figures import ascii_heatmap

        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        text = ascii_heatmap(matrix, title="t:")
        lines = text.splitlines()
        assert lines[0] == "t:"
        assert lines[1] == " @"
        assert lines[2] == "@ "

    def test_downsampling(self):
        import numpy as np

        from repro.reporting.figures import ascii_heatmap

        matrix = np.random.default_rng(0).random((100, 100))
        text = ascii_heatmap(matrix, max_cells=10)
        rows = [l for l in text.splitlines() if not l.startswith("(")]
        assert len(rows) == 10
        assert all(len(row) == 10 for row in rows)

    def test_empty(self):
        import numpy as np

        from repro.reporting.figures import ascii_heatmap

        assert "empty" in ascii_heatmap(np.zeros((0, 0)))

    def test_fig05_includes_heatmap(self, results):
        assert "shading" in results["fig05"].extra_text
