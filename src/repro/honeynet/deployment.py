"""Fleet deployment: 221 identically configured honeypots.

Paper section 3.1: the honeynet runs 221 Cowrie honeypots in 55
countries and 65 ASes, focused on residential networks.  Placement is
deterministic under the simulation seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.honeypot.cowrie import CowrieHoneypot
from repro.net.ipv4 import int_to_ip
from repro.net.population import BasePopulation
from repro.util.rng import RngTree

#: Sensors in the fleet (paper section 3.1).
N_HONEYPOTS = 221

#: Countries hosting them (paper section 3.1).
N_COUNTRIES = 55

_HOSTNAMES = (
    "svr04", "ns3", "db01", "app-srv", "media-box", "cam-gw", "router",
    "nas-home", "iot-hub", "vps-web", "mail02", "edge-01",
)


@dataclass
class Honeynet:
    """The deployed fleet plus its placement metadata."""

    honeypots: list[CowrieHoneypot]
    countries: list[str]
    _index: dict[str, CowrieHoneypot] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._index = {hp.honeypot_id: hp for hp in self.honeypots}

    def __len__(self) -> int:
        return len(self.honeypots)

    def by_id(self, honeypot_id: str) -> CowrieHoneypot:
        """O(1) lookup of a sensor by its id."""
        return self._index[honeypot_id]


def deploy_honeynet(population: BasePopulation, rng_tree: RngTree) -> Honeynet:
    """Place the :data:`N_HONEYPOTS` sensors across :data:`N_COUNTRIES`
    countries and every honeypot-hosting AS of ``population``."""
    rng = rng_tree.child("deployment").rand()
    from repro.net.geo import pick_countries

    countries = pick_countries(rng, N_COUNTRIES)
    honeypots: list[CowrieHoneypot] = []
    host_ases = population.honeypot_ases
    for index in range(N_HONEYPOTS):
        record = host_ases[index % len(host_ases)]
        address = record.random_ip(rng)
        hostname = rng.choice(_HOSTNAMES) + f"-{index:03d}"
        honeypots.append(
            CowrieHoneypot(
                honeypot_id=f"hp-{index:03d}",
                ip=int_to_ip(address),
                country=countries[index % len(countries)],
                asn=record.asn,
                hostname=hostname,
            )
        )
    return Honeynet(honeypots=honeypots, countries=countries)
