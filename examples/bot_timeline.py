#!/usr/bin/env python3
"""Print the attacker ecosystem's activity timeline (a text Gantt).

Shows when every bot in the roster is active across the 33-month
window and at roughly what intensity — the generative design behind
Figures 2, 3 and 6.  No simulation needed: this reads the activity
models directly.

Run:  python examples/bot_timeline.py [--min-volume 100000]
"""

from __future__ import annotations

import argparse

from repro.attackers.activity import total_rate
from repro.attackers.fleetplan import build_fleet
from repro.config import DEFAULT_CONFIG
from repro.net.population import build_base_population
from repro.util.rng import RngTree
from repro.util.timeutils import months_between, parse_month

#: Intensity glyphs: quiet → busy (relative to the bot's own peak).
RAMP = " .:*#"


def monthly_profile(bot, months: list[str]) -> list[float]:
    """Mean daily rate per month for one bot."""
    from repro.util.timeutils import days_in_month, parse_month
    from datetime import timedelta

    profile = []
    for key in months:
        first = parse_month(key)
        total = sum(
            bot.activity.rate(first + timedelta(days=offset))
            for offset in range(0, days_in_month(key), 7)
        )
        profile.append(total)
    return profile


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--min-volume",
        type=float,
        default=0.0,
        help="hide bots below this total paper-scale session volume",
    )
    args = parser.parse_args()

    population = build_base_population(RngTree(DEFAULT_CONFIG.seed).child("net"))
    fleet = build_fleet(
        population, RngTree(DEFAULT_CONFIG.seed).child("fleet"), DEFAULT_CONFIG
    )
    months = months_between(DEFAULT_CONFIG.start, DEFAULT_CONFIG.end)

    ranked = sorted(
        fleet,
        key=lambda bot: -total_rate(
            bot.activity, DEFAULT_CONFIG.start, DEFAULT_CONFIG.end
        ),
    )
    name_width = max(len(bot.name) for bot in ranked)
    year_marks = "".join(
        "|" if parse_month(m).month == 1 else " " for m in months
    )
    print(f"{''.ljust(name_width)}  {year_marks}   total sessions (paper scale)")
    for bot in ranked:
        volume = total_rate(bot.activity, DEFAULT_CONFIG.start, DEFAULT_CONFIG.end)
        if volume < args.min_volume:
            continue
        profile = monthly_profile(bot, months)
        peak = max(profile) or 1.0
        bars = "".join(
            RAMP[min(len(RAMP) - 1, int(value / peak * (len(RAMP) - 1) + 0.5))]
            for value in profile
        )
        print(f"{bot.name.ljust(name_width)}  {bars}   {volume / 1e6:7.2f}M")
    print(
        f"\n({len(months)} months, {months[0]} .. {months[-1]}; "
        "'|' marks each January; intensity is relative to each bot's peak)"
    )


if __name__ == "__main__":
    main()
