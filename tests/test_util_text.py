"""Text rendering helpers."""

from __future__ import annotations

import pytest

from repro.util.text import (
    ascii_bar,
    ascii_series,
    format_table,
    percentage,
)


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "n"], [["a", 1], ["longer", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        # all rows visually aligned on the second column
        assert lines[2].index("1") == lines[3].index("2")

    def test_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table

    def test_wide_cells_extend_columns(self):
        table = format_table(["a"], [["mmmmmmmmmm", "extra"]])
        assert "extra" in table


class TestAscii:
    def test_bar_scaling(self):
        assert ascii_bar(5, 10, width=10) == "#####"
        assert ascii_bar(0, 10) == ""
        assert ascii_bar(3, 0) == ""

    def test_series(self):
        chart = ascii_series(["a", "bb"], [1.0, 2.0], width=4)
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") == 4

    def test_series_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_series(["a"], [1.0, 2.0])


class TestNumbers:
    def test_percentage(self):
        assert percentage(1, 4) == 25.0
        assert percentage(1, 0) == 0.0
