"""Country catalogue for honeypot placement and client origin.

The honeynet spans 55 countries (paper section 3.1); weights skew the
client population the way residential attack traffic typically skews.
"""

from __future__ import annotations

import random

from repro.util.rng import WeightedTable

#: (ISO code, relative weight) — 60 countries so any 55-subset works.
COUNTRIES: list[tuple[str, float]] = [
    ("US", 9.0), ("CN", 9.0), ("DE", 6.0), ("RU", 6.0), ("BR", 5.0),
    ("IN", 5.0), ("NL", 4.0), ("FR", 4.0), ("GB", 4.0), ("KR", 4.0),
    ("VN", 3.5), ("ID", 3.0), ("SG", 3.0), ("JP", 3.0), ("HK", 3.0),
    ("UA", 2.5), ("PL", 2.5), ("IT", 2.5), ("ES", 2.0), ("CA", 2.0),
    ("TR", 2.0), ("TW", 2.0), ("TH", 2.0), ("MX", 1.5), ("AR", 1.5),
    ("RO", 1.5), ("CZ", 1.5), ("SE", 1.5), ("CH", 1.2), ("AT", 1.2),
    ("BE", 1.2), ("AU", 1.2), ("ZA", 1.0), ("EG", 1.0), ("NG", 1.0),
    ("KE", 0.8), ("CL", 0.8), ("CO", 0.8), ("PE", 0.6), ("MY", 0.8),
    ("PH", 0.8), ("PK", 0.8), ("BD", 0.8), ("IR", 0.8), ("IQ", 0.5),
    ("SA", 0.6), ("AE", 0.6), ("IL", 0.6), ("GR", 0.6), ("PT", 0.6),
    ("HU", 0.6), ("BG", 0.6), ("RS", 0.5), ("HR", 0.4), ("SK", 0.4),
    ("LT", 0.4), ("LV", 0.4), ("EE", 0.4), ("FI", 0.6), ("NO", 0.6),
]


def pick_countries(rng: random.Random, count: int) -> list[str]:
    """Choose ``count`` distinct countries, weight-biased, for placement.

    Each country is drawn from a table over the ones still unpicked.
    """
    if count > len(COUNTRIES):
        raise ValueError(
            f"only {len(COUNTRIES)} countries available, asked for {count}"
        )
    pool = list(COUNTRIES)
    chosen: list[str] = []
    for _ in range(count):
        code = WeightedTable(pool).pick(rng)
        chosen.append(code)
        pool = [pair for pair in pool if pair[0] != code]
    return chosen


#: Every country by client-origin weight, for :func:`random_country`.
_COUNTRY_TABLE = WeightedTable(COUNTRIES)


def random_country(rng: random.Random) -> str:
    """Weighted random country for a client AS."""
    return _COUNTRY_TABLE.pick(rng)
