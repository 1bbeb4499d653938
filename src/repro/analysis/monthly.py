"""Time-bucketing helpers shared by the figure experiments."""

from __future__ import annotations

from collections import Counter, defaultdict
from datetime import date
from typing import Iterable

from repro.honeypot.session import SessionRecord
from repro.util.timeutils import epoch_date, month_key


def session_day(session: SessionRecord) -> date:
    """The UTC calendar day a session started on."""
    return epoch_date(session.start)


def session_month(session: SessionRecord) -> str:
    return month_key(session_day(session))


def monthly_counts(months: Iterable[str]) -> dict[str, int]:
    """Sessions per month key, from one month per session."""
    return dict(Counter(months))


def daily_counts(days: Iterable[date]) -> dict[date, int]:
    """Sessions per day, from one day per session."""
    return dict(Counter(days))


def monthly_groups(pairs: Iterable[tuple[str, str]]) -> dict[str, Counter]:
    """month → Counter(key → sessions), from one ``(month, key)`` pair
    per session."""
    grouped: dict[str, Counter] = defaultdict(Counter)
    for month, key in pairs:
        grouped[month][key] += 1
    return dict(grouped)


def top_n_shares(
    per_month: dict[str, Counter], n: int
) -> dict[str, list[tuple[str, float]]]:
    """Per month: the top-n keys and their session share (Figure 2/3)."""
    shares: dict[str, list[tuple[str, float]]] = {}
    for month, counter in per_month.items():
        total = sum(counter.values())
        if total == 0:
            shares[month] = []
            continue
        shares[month] = [
            (name, count / total) for name, count in counter.most_common(n)
        ]
    return shares


def overall_shares(per_month: dict[str, Counter]) -> dict[str, float]:
    """Aggregate share of each key across all months."""
    totals: Counter = Counter()
    for counter in per_month.values():
        totals.update(counter)
    grand_total = sum(totals.values())
    if grand_total == 0:
        return {}
    return {name: count / grand_total for name, count in totals.items()}


def daily_box_stats(days: Iterable[date]) -> dict[str, dict[str, float]]:
    """Per month: min/q1/median/q3/max of the daily session counts,
    from one day per session.

    This is the data behind Figure 1's monthly boxplots.
    """
    per_day = daily_counts(days)
    per_month_days: dict[str, list[int]] = defaultdict(list)
    for day, count in per_day.items():
        per_month_days[month_key(day)].append(count)
    stats: dict[str, dict[str, float]] = {}
    for month, values in per_month_days.items():
        ordered = sorted(values)
        stats[month] = {
            "min": float(ordered[0]),
            "q1": _quantile(ordered, 0.25),
            "median": _quantile(ordered, 0.50),
            "q3": _quantile(ordered, 0.75),
            "max": float(ordered[-1]),
            "total": float(sum(ordered)),
            "days": float(len(ordered)),
        }
    return stats


def _quantile(ordered: list[int], q: float) -> float:
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction
