"""Calendar helpers."""

from __future__ import annotations

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.timeutils import (
    days_between,
    days_in_month,
    epoch_date,
    epoch_ordinal,
    first_of_month,
    from_epoch,
    month_key,
    months_between,
    next_month,
    parse_month,
    to_epoch,
)

_dates = st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 12, 31))


class TestMonthKeys:
    def test_month_key(self):
        assert month_key(date(2022, 3, 15)) == "2022-03"

    def test_parse_roundtrip(self):
        assert parse_month("2022-03") == date(2022, 3, 1)

    @given(_dates)
    @settings(max_examples=60)
    def test_roundtrip_property(self, day):
        assert parse_month(month_key(day)) == first_of_month(day)

    def test_next_month_december(self):
        assert next_month(date(2021, 12, 5)) == date(2022, 1, 1)



class TestRanges:
    def test_months_between_window(self):
        keys = months_between(date(2021, 12, 1), date(2024, 8, 31))
        assert len(keys) == 33
        assert keys[0] == "2021-12"
        assert keys[-1] == "2024-08"

    def test_months_between_rejects_reversed(self):
        with pytest.raises(ValueError):
            months_between(date(2022, 2, 1), date(2022, 1, 1))

    def test_days_between_inclusive(self):
        days = list(days_between(date(2022, 1, 30), date(2022, 2, 2)))
        assert days == [
            date(2022, 1, 30),
            date(2022, 1, 31),
            date(2022, 2, 1),
            date(2022, 2, 2),
        ]

    def test_days_in_month_leap(self):
        assert days_in_month("2024-02") == 29
        assert days_in_month("2023-02") == 28


class TestEpoch:
    def test_to_epoch_midnight_utc(self):
        ts = to_epoch(date(2022, 1, 1))
        assert from_epoch(ts).hour == 0
        assert epoch_date(ts) == date(2022, 1, 1)

    @given(_dates, st.floats(min_value=0, max_value=86_399))
    @settings(max_examples=60)
    def test_epoch_roundtrip(self, day, seconds):
        assert epoch_date(to_epoch(day, seconds)) == day

    def test_day_is_floored_not_rounded(self):
        # Half a microsecond before midnight: rounding to the microsecond
        # (as datetime.fromtimestamp does) would give the next day.
        ts = 1638835199.9999995
        assert epoch_date(ts) == date(2021, 12, 6)
        assert epoch_date(ts) == date.fromordinal(epoch_ordinal(ts))
        assert epoch_date(1638835200.0) == date(2021, 12, 7)

    @given(st.floats(min_value=-1e10, max_value=1e10))
    @settings(max_examples=200)
    def test_date_and_ordinal_agree(self, ts):
        assert epoch_date(ts).toordinal() == epoch_ordinal(ts)
