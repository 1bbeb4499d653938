"""Network substrate: IPv4 math, AS registry, historical WHOIS, geo."""

from repro.net.asn import ASRecord, ASRegistry, ASType, PrefixAllocator
from repro.net.geo import COUNTRIES, pick_countries, random_country
from repro.net.ipv4 import (
    MAX_IPV4,
    Prefix,
    int_to_ip,
    ip_to_int,
    is_reserved,
    parse_prefix,
)
from repro.net.population import BasePopulation, build_base_population
from repro.net.whois import HistoricalWhois, WhoisResult

__all__ = [
    "ASRecord",
    "ASRegistry",
    "ASType",
    "PrefixAllocator",
    "COUNTRIES",
    "pick_countries",
    "random_country",
    "MAX_IPV4",
    "Prefix",
    "int_to_ip",
    "ip_to_int",
    "is_reserved",
    "parse_prefix",
    "BasePopulation",
    "build_base_population",
    "HistoricalWhois",
    "WhoisResult",
]
