"""Client IP pools — where each bot's sessions originate.

Each bot owns a pool of client IPs drawn from the base AS population
(skewed to ISP/NSP eyeball space, the paper's Figure 7 left side).
Pool sizes follow the paper's per-actor unique-IP counts multiplied by
the simulation scale, with a small floor so every actor remains
observable at tiny scales.
"""

from __future__ import annotations

import random

from repro.net.asn import ASType
from repro.net.ipv4 import int_to_ip
from repro.net.population import BasePopulation
from repro.util.rng import RngTree, WeightedTable

#: Minimum pool size regardless of scale (keeps actors observable).
MIN_POOL_SIZE = 4


def _reuse_table(ips: list[str]) -> WeightedTable:
    """Zipf-ish reuse weights by pool rank: a few heavy hitters, a long tail."""
    return WeightedTable(
        (address, 1.0 / (rank + 1) ** 0.6) for rank, address in enumerate(ips)
    )


class ClientIPPool:
    """A fixed set of client IPs with weighted reuse."""

    def __init__(
        self,
        name: str,
        population: BasePopulation,
        rng_tree: RngTree,
        paper_ips: int,
        scale: float,
        as_type: ASType | None = None,
        min_size: int = MIN_POOL_SIZE,
    ) -> None:
        self.name = name
        size = max(min_size, int(round(paper_ips * scale)))
        rng = rng_tree.child("ippool", name).rand()
        self._ips: list[str] = []
        seen: set[str] = set()
        while len(self._ips) < size:
            record = (
                rng.choice(population.registry.of_type(as_type))
                if as_type is not None
                else population.weighted_client_as(rng)
            )
            address = int_to_ip(record.random_ip(rng))
            if address not in seen:
                seen.add(address)
                self._ips.append(address)
        self._table = _reuse_table(self._ips)

    def __len__(self) -> int:
        return len(self._ips)

    @property
    def ips(self) -> list[str]:
        return list(self._ips)

    def pick(self, rng: random.Random) -> str:
        """Weighted pick: heavy hitters dominate like real botnets."""
        return self._table.pick(rng)

    def pick_uniform(self, rng: random.Random) -> str:
        return rng.choice(self._ips)

    def sample(self, rng: random.Random, count: int) -> list[str]:
        """Up to ``count`` distinct IPs."""
        return rng.sample(self._ips, min(count, len(self._ips)))


class SharedPool(ClientIPPool):
    """A pool derived from another pool plus a sliver of extra IPs.

    Models the 99.4 % client-IP overlap between the mdrfckr actor and
    the 3245gs5662d34 credential attack (section 9).
    """

    def __init__(
        self,
        name: str,
        base_pool: ClientIPPool,
        population: BasePopulation,
        rng_tree: RngTree,
        overlap: float = 0.994,
    ) -> None:
        self.name = name
        rng = rng_tree.child("ippool", name).rand()
        extra_count = max(1, int(round(len(base_pool) * (1 - overlap) / overlap)))
        extras: list[str] = []
        seen = set(base_pool.ips)
        while len(extras) < extra_count:
            record = population.weighted_client_as(rng)
            address = int_to_ip(record.random_ip(rng))
            if address not in seen:
                seen.add(address)
                extras.append(address)
        self._ips = base_pool.ips + extras
        self._table = _reuse_table(self._ips)
