"""Calendar helpers for the 33-month observation window.

Most paper figures aggregate by month ("2022-03") or by day; these
helpers provide deterministic iteration over the window and stable keys.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from typing import Iterator


def month_key(day: date) -> str:
    """Return the ``YYYY-MM`` key for a date (figure x-axis labels)."""
    return f"{day.year:04d}-{day.month:02d}"


def parse_month(key: str) -> date:
    """Parse a ``YYYY-MM`` key into the first day of that month."""
    year_text, _, month_text = key.partition("-")
    return date(int(year_text), int(month_text), 1)


def first_of_month(day: date) -> date:
    """Return the first day of ``day``'s month."""
    return day.replace(day=1)


def next_month(day: date) -> date:
    """Return the first day of the month after ``day``'s month."""
    if day.month == 12:
        return date(day.year + 1, 1, 1)
    return date(day.year, day.month + 1, 1)


def months_between(start: date, end: date) -> list[str]:
    """Return all month keys from ``start``'s to ``end``'s month inclusive."""
    if start > end:
        raise ValueError("start must not be after end")
    keys = []
    cursor = first_of_month(start)
    stop = first_of_month(end)
    while cursor <= stop:
        keys.append(month_key(cursor))
        cursor = next_month(cursor)
    return keys


def days_between(start: date, end: date) -> Iterator[date]:
    """Yield every date from ``start`` to ``end`` inclusive."""
    if start > end:
        raise ValueError("start must not be after end")
    cursor = start
    one_day = timedelta(days=1)
    while cursor <= end:
        yield cursor
        cursor += one_day


def days_in_month(key: str) -> int:
    """Number of days in the month identified by a ``YYYY-MM`` key."""
    first = parse_month(key)
    return (next_month(first) - first).days


def to_epoch(day: date, seconds_into_day: float = 0.0) -> float:
    """Convert a date (+offset) to a UTC POSIX timestamp."""
    moment = datetime(day.year, day.month, day.day, tzinfo=timezone.utc)
    return moment.timestamp() + seconds_into_day


def from_epoch(timestamp: float) -> datetime:
    """Convert a POSIX timestamp back to an aware UTC datetime."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc)


#: ``date(1970, 1, 1).toordinal()`` — the POSIX epoch as an ordinal.
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def epoch_ordinal(timestamp: float) -> int:
    """The ordinal of the UTC calendar day a POSIX timestamp falls on.

    The one day function: the timestamp is floored to whole days, never
    rounded, so ``1638835199.9999995``, half a microsecond before
    midnight, is still 2021-12-06.  The collector calls this once per
    delivered record, without building a date.
    """
    return _EPOCH_ORDINAL + int(timestamp // 86_400)


def epoch_date(timestamp: float) -> date:
    """The UTC calendar date of a POSIX timestamp: the day
    :func:`epoch_ordinal` gives, so every consumer of a session's day
    agrees with the collector's."""
    return date.fromordinal(epoch_ordinal(timestamp))
