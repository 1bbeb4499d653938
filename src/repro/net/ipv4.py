"""Minimal IPv4 arithmetic used throughout the simulator.

We avoid the stdlib ``ipaddress`` module on hot paths: sessions carry
plain dotted-quad strings and the AS registry keeps its announced
blocks as integer ranges sorted by first address, which keeps lookups
to one bisection.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MAX_IPV4 = 2**32 - 1


def ip_to_int(text: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if octet < 0 or octet > 255:
            raise ValueError(f"invalid IPv4 octet in {text!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Format an integer as a dotted-quad IPv4 address."""
    if value < 0 or value > MAX_IPV4:
        raise ValueError(f"IPv4 integer out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix (network base integer + mask length)."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.length > 32:
            raise ValueError(f"invalid prefix length {self.length}")
        if self.network & (self.hostmask()) != 0:
            raise ValueError("network bits set below the mask")
        if self.network < 0 or self.network > MAX_IPV4:
            raise ValueError("network out of IPv4 range")

    def hostmask(self) -> int:
        return (1 << (32 - self.length)) - 1

    @property
    def num_addresses(self) -> int:
        return 1 << (32 - self.length)

    @property
    def num_slash24(self) -> int:
        """Number of /24 blocks covered (1 for /24 and longer)."""
        if self.length >= 24:
            return 1
        return 1 << (24 - self.length)

    def contains(self, address: int) -> bool:
        return (address & ~self.hostmask()) == self.network

    def slash24_bases(self) -> list[int]:
        """All /24 base addresses inside this prefix."""
        return [self.network + (i << 8) for i in range(self.num_slash24)]

    def random_ip(self, rng: random.Random) -> int:
        """A uniformly random host address inside the prefix.

        Avoids the .0 and .255 addresses of the containing /24 so that
        generated client IPs look like plausible hosts.
        """
        base = self.network + rng.randrange(self.num_slash24) * 256
        return base + rng.randint(1, 254)

    def __str__(self) -> str:
        return f"{int_to_ip(self.network)}/{self.length}"


def parse_prefix(text: str) -> Prefix:
    """Parse ``a.b.c.d/len`` notation."""
    address, _, length_text = text.partition("/")
    if not length_text:
        raise ValueError(f"missing prefix length in {text!r}")
    return Prefix(ip_to_int(address), int(length_text))


#: Address ranges the allocator must never hand out (reserved space).
RESERVED_PREFIXES = (
    parse_prefix("0.0.0.0/8"),
    parse_prefix("10.0.0.0/8"),
    parse_prefix("100.64.0.0/10"),
    parse_prefix("127.0.0.0/8"),
    parse_prefix("169.254.0.0/16"),
    parse_prefix("172.16.0.0/12"),
    parse_prefix("192.168.0.0/16"),
    parse_prefix("224.0.0.0/3"),
)


def is_reserved(address: int) -> bool:
    """Whether ``address`` falls in reserved/non-routable space."""
    return any(prefix.contains(address) for prefix in RESERVED_PREFIXES)
