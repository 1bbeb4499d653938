"""Autonomous-system registry: types, registration dates, announcements.

Reproduces the role of bgp.tools / PeeringDB / historical WHOIS in the
paper (section 3.5): every IP used in the simulation can be attributed
to an AS, the AS has a type tag (CDN / Hosting / ISP-NSP / Other), a
registration date, and a set of announced prefixes that can be
deaggregated into /24s for the Figure 8(b) size analysis.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import date
from enum import Enum

from repro.net.ipv4 import MAX_IPV4, Prefix, is_reserved


class ASType(str, Enum):
    """The four AS categories the paper distinguishes (section 3.5)."""

    CDN = "CDN"
    HOSTING = "Hosting"
    ISP_NSP = "ISP/NSP"
    OTHER = "Other"


@dataclass
class ASRecord:
    """One autonomous system in the synthetic registry."""

    asn: int
    name: str
    as_type: ASType
    registered: date
    prefixes: list[Prefix] = field(default_factory=list)
    country: str = "ZZ"
    withdrawn: date | None = None

    @property
    def num_slash24(self) -> int:
        """Total announced address space in /24 units (deaggregated)."""
        return sum(prefix.num_slash24 for prefix in self.prefixes)

    def is_announcing(self, on: date) -> bool:
        """Whether the AS announces prefixes on the given day."""
        if on < self.registered:
            return False
        if self.withdrawn is not None and on >= self.withdrawn:
            return False
        return True

    def age_years(self, on: date) -> float:
        """AS age in (fractional) years at ``on``."""
        return max(0.0, (on - self.registered).days / 365.25)

    def random_ip(self, rng: random.Random) -> int:
        """Pick a host address announced by this AS."""
        if not self.prefixes:
            raise ValueError(f"AS{self.asn} announces no prefixes")
        prefix = rng.choice(self.prefixes)
        return prefix.random_ip(rng)


class PrefixAllocator:
    """Hands out non-overlapping /24-aligned blocks of IPv4 space.

    Blocks are carved sequentially from routable space, skipping reserved
    ranges, so every AS in the registry announces disjoint prefixes.
    """

    def __init__(self, start: int = 0x01000000) -> None:
        self._cursor = start

    def allocate(self, n_slash24: int) -> list[Prefix]:
        """Allocate ``n_slash24`` /24 blocks as a minimal set of prefixes.

        The count is decomposed into powers of two so the AS announces
        realistic aggregates (e.g. 50 /24s → one /19, one /20, one /23).
        """
        if n_slash24 < 1:
            raise ValueError("must allocate at least one /24")
        prefixes: list[Prefix] = []
        remaining = n_slash24
        while remaining > 0:
            chunk = 1 << (remaining.bit_length() - 1)
            prefixes.append(self._allocate_chunk(chunk))
            remaining -= chunk
        return prefixes

    def _allocate_chunk(self, n_slash24: int) -> Prefix:
        length = 24 - (n_slash24.bit_length() - 1)
        span = n_slash24 << 8
        cursor = self._cursor
        while True:
            aligned = (cursor + span - 1) // span * span
            if aligned + span - 1 > MAX_IPV4:
                raise RuntimeError("IPv4 space exhausted by allocator")
            if not is_reserved(aligned) and not is_reserved(aligned + span - 1):
                self._cursor = aligned + span
                return Prefix(aligned, length)
            cursor = aligned + span


class ASRegistry:
    """All ASes known to the simulation, with (ip, date) attribution.

    Announced blocks are kept as three parallel lists sorted by first
    address: first address, last address and ASN.  The allocator hands
    out disjoint, /24-aligned blocks, so the block holding an address,
    if any, is the last one starting at or below it.
    """

    def __init__(self) -> None:
        self._records: dict[int, ASRecord] = {}
        self._block_starts: list[int] = []
        self._block_lasts: list[int] = []
        self._block_asns: list[int] = []
        self._allocator = PrefixAllocator()
        self._next_asn = 64500

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, asn: int) -> bool:
        return asn in self._records

    @property
    def records(self) -> list[ASRecord]:
        return list(self._records.values())

    def get(self, asn: int) -> ASRecord:
        return self._records[asn]

    def create(
        self,
        as_type: ASType,
        registered: date,
        n_slash24: int,
        name: str | None = None,
        country: str = "ZZ",
        withdrawn: date | None = None,
    ) -> ASRecord:
        """Register a new AS announcing ``n_slash24`` /24s of fresh space."""
        asn = self._next_asn
        self._next_asn += 1
        prefixes = self._allocator.allocate(n_slash24)
        record = ASRecord(
            asn=asn,
            name=name or f"AS-{as_type.name}-{asn}",
            as_type=as_type,
            registered=registered,
            prefixes=prefixes,
            country=country,
            withdrawn=withdrawn,
        )
        self._records[asn] = record
        for prefix in prefixes:
            index = bisect_right(self._block_starts, prefix.network)
            self._block_starts.insert(index, prefix.network)
            self._block_lasts.insert(
                index, prefix.network + prefix.num_addresses - 1
            )
            self._block_asns.insert(index, asn)
        return record

    def lookup_asn(self, address: int) -> int | None:
        """Map an IP integer to its announcing ASN (date-agnostic)."""
        index = bisect_right(self._block_starts, address) - 1
        if index >= 0 and address <= self._block_lasts[index]:
            return self._block_asns[index]
        return None

    def lookup(self, address: int) -> ASRecord | None:
        asn = self.lookup_asn(address)
        if asn is None:
            return None
        return self._records[asn]

    def of_type(self, as_type: ASType) -> list[ASRecord]:
        return [r for r in self._records.values() if r.as_type == as_type]
