"""SSH client-banner and sensor-coverage analyses.

The honeynet records the client SSH version string for every SSH
session (paper section 3.2) and distributes sensors across countries
(section 3.1, with the limitations discussion noting coverage gaps).
These helpers summarize both.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.honeypot.session import SessionRecord


def banner_distribution(sessions: list[SessionRecord]) -> Counter:
    """How often each client SSH version string appears."""
    counts: Counter = Counter()
    for session in sessions:
        if session.ssh_version:
            counts[session.ssh_version] += 1
    return counts


@dataclass
class SensorCoverage:
    """How evenly attack traffic spreads across the fleet."""

    sessions_per_honeypot: Counter
    sessions_per_country: Counter
    active_honeypots: int
    gini: float

    @property
    def busiest_honeypot(self) -> tuple[str, int]:
        return self.sessions_per_honeypot.most_common(1)[0]


def gini_coefficient(values: list[int]) -> float:
    """Gini inequality of a count distribution (0 = perfectly even)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    total = sum(ordered)
    if total == 0:
        return 0.0
    cumulative = 0.0
    weighted = 0.0
    for index, value in enumerate(ordered, start=1):
        cumulative += value
        weighted += cumulative
    return (n + 1 - 2 * weighted / total) / n


def sensor_coverage(
    sessions: list[SessionRecord],
    honeypot_countries: dict[str, str],
) -> SensorCoverage:
    """Per-sensor and per-country load over a session collection."""
    per_honeypot: Counter = Counter()
    per_country: Counter = Counter()
    for session in sessions:
        per_honeypot[session.honeypot_id] += 1
        country = honeypot_countries.get(session.honeypot_id, "??")
        per_country[country] += 1
    return SensorCoverage(
        sessions_per_honeypot=per_honeypot,
        sessions_per_country=per_country,
        active_honeypots=len(per_honeypot),
        gini=gini_coefficient(list(per_honeypot.values())),
    )
