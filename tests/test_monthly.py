"""Time-bucketing helpers."""

from __future__ import annotations

from collections import Counter
from datetime import date

from repro.analysis.monthly import (
    daily_box_stats,
    daily_counts,
    monthly_counts,
    monthly_groups,
    overall_shares,
    top_n_shares,
)


class TestCounts:
    def test_monthly_counts(self):
        assert monthly_counts(["2022-01", "2022-01", "2022-02"]) == {
            "2022-01": 2,
            "2022-02": 1,
        }

    def test_daily_counts(self):
        assert daily_counts([date(2022, 1, 1), date(2022, 1, 1)]) == {
            date(2022, 1, 1): 2
        }

    def test_monthly_groups(self):
        grouped = monthly_groups(
            [("2022-01", "x"), ("2022-01", "x"), ("2022-01", "y")]
        )
        assert grouped["2022-01"] == Counter({"x": 2, "y": 1})


class TestShares:
    def test_top_n(self):
        per_month = {"2022-01": Counter({"a": 8, "b": 2})}
        top = top_n_shares(per_month, 1)
        assert top["2022-01"] == [("a", 0.8)]

    def test_top_n_empty_month(self):
        assert top_n_shares({"m": Counter()}, 3)["m"] == []

    def test_overall_shares(self):
        per_month = {
            "2022-01": Counter({"a": 3}),
            "2022-02": Counter({"a": 1, "b": 4}),
        }
        shares = overall_shares(per_month)
        assert shares["a"] == 0.5
        assert shares["b"] == 0.5

    def test_overall_shares_empty(self):
        assert overall_shares({}) == {}


class TestBoxStats:
    def test_quantiles(self):
        days = []
        for day, count in ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5)):
            days.extend([date(2022, 1, day)] * count)
        stats = daily_box_stats(days)["2022-01"]
        assert stats["min"] == 1
        assert stats["max"] == 5
        assert stats["median"] == 3
        assert stats["q1"] == 2
        assert stats["q3"] == 4
        assert stats["total"] == 15
        assert stats["days"] == 5

    def test_single_day(self):
        stats = daily_box_stats([date(2022, 1, 1)])["2022-01"]
        assert stats["min"] == stats["max"] == 1
