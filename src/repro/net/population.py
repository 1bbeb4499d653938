"""Builders for the baseline AS population.

Creates the client-side Internet (mostly ISP/NSP eyeball networks, per
the Figure 7 finding that attacking clients sit in ISP/NSP space) and
the 65 ASes hosting honeypots.  Malware *storage* ASes are created later
by the attacker-infrastructure module, because their registration dates
are tied to when the attacker activates them (Figure 8(a)).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import date, timedelta

from repro.net.asn import ASRecord, ASRegistry, ASType
from repro.net.geo import random_country
from repro.util.rng import RngTree, WeightedTable

#: (type, count, (min /24s, max /24s), share of client traffic) — the
#: traffic share drives Figure 7's left side: clients overwhelmingly in
#: ISP/NSP space, some in Hosting, few in CDN/Other.
CLIENT_AS_PLAN: list[tuple[ASType, int, tuple[int, int], float]] = [
    (ASType.ISP_NSP, 260, (64, 8192), 0.80),
    (ASType.HOSTING, 90, (2, 512), 0.13),
    (ASType.OTHER, 40, (1, 128), 0.05),
    (ASType.CDN, 10, (256, 4096), 0.02),
]

#: ASes hosting the honeynet's sensors (paper section 3.1).
N_HONEYPOT_ASES = 65


@dataclass
class BasePopulation:
    """The pre-attack Internet: registry plus client/honeypot AS pools."""

    registry: ASRegistry
    client_ases: list[ASRecord]
    client_weights: list[float]
    honeypot_ases: list[ASRecord]
    _client_table: WeightedTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._client_table = WeightedTable(
            zip(self.client_ases, self.client_weights)
        )

    def weighted_client_as(self, rng: random.Random) -> ASRecord:
        """Pick a client AS according to the traffic-share plan."""
        return self._client_table.pick(rng)


def _log_uniform(rng: random.Random, low: int, high: int) -> int:
    """Integer sampled log-uniformly in ``[low, high]``."""
    import math

    return int(round(math.exp(rng.uniform(math.log(low), math.log(high)))))


def build_base_population(rng_tree: RngTree) -> BasePopulation:
    """Create the registry with client and honeypot AS populations."""
    registry = ASRegistry()
    rng = rng_tree.child("population").rand()
    client_ases: list[ASRecord] = []
    client_weights: list[float] = []
    for as_type, count, (low, high), share in CLIENT_AS_PLAN:
        per_as_weights = [rng.expovariate(1.0) + 0.05 for _ in range(count)]
        weight_total = sum(per_as_weights)
        for index in range(count):
            registered = _old_registration(rng)
            record = registry.create(
                as_type=as_type,
                registered=registered,
                n_slash24=_log_uniform(rng, low, high),
                country=random_country(rng),
            )
            client_ases.append(record)
            client_weights.append(share * per_as_weights[index] / weight_total)

    honeypot_ases = [
        registry.create(
            as_type=ASType.ISP_NSP,
            registered=_old_registration(rng),
            n_slash24=_log_uniform(rng, 16, 1024),
            name=f"AS-HONEYNET-HOST-{index}",
            country=random_country(rng),
        )
        for index in range(N_HONEYPOT_ASES)
    ]
    return BasePopulation(
        registry=registry,
        client_ases=client_ases,
        client_weights=client_weights,
        honeypot_ases=honeypot_ases,
    )


def _old_registration(rng: random.Random) -> date:
    """Registration date for established networks (1995–2020)."""
    start = date(1995, 1, 1)
    span_days = (date(2020, 12, 31) - start).days
    return start + timedelta(days=rng.randrange(span_days))
