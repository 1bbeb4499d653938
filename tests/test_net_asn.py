"""AS registry, allocation and routing helpers."""

from __future__ import annotations

import random
from datetime import date

import pytest

from repro.net.asn import ASRegistry, ASType, PrefixAllocator
from repro.net.ipv4 import MAX_IPV4, ip_to_int, is_reserved, slash24_base
from repro.net.population import build_base_population
from repro.net.routing import count_slash24, deaggregate, size_bucket
from repro.net.whois import HistoricalWhois
from repro.util.rng import RngTree


@pytest.fixture
def registry():
    return ASRegistry()


class TestPrefixAllocator:
    def test_allocation_counts(self):
        allocator = PrefixAllocator()
        prefixes = allocator.allocate(50)
        assert sum(p.num_slash24 for p in prefixes) == 50
        # 50 = 32 + 16 + 2 → three aggregates
        assert len(prefixes) == 3

    def test_allocations_disjoint(self):
        allocator = PrefixAllocator()
        first = allocator.allocate(8)
        second = allocator.allocate(8)
        bases_a = {b for p in first for b in p.slash24_bases()}
        bases_b = {b for p in second for b in p.slash24_bases()}
        assert not bases_a & bases_b

    def test_never_reserved(self):
        allocator = PrefixAllocator(start=ip_to_int("9.255.0.0"))
        prefixes = allocator.allocate(512)  # must skip over 10.0.0.0/8
        for prefix in prefixes:
            assert not is_reserved(prefix.network)
            assert not is_reserved(prefix.network + prefix.num_addresses - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            PrefixAllocator().allocate(0)


class TestRegistry:
    def test_create_and_lookup(self, registry):
        record = registry.create(ASType.HOSTING, date(2020, 1, 1), n_slash24=4)
        rng = random.Random(0)
        address = record.random_ip(rng)
        assert registry.lookup_asn(address) == record.asn
        assert registry.lookup(address) is record

    def test_lookup_unknown_space(self, registry):
        assert registry.lookup(ip_to_int("203.0.113.5")) is None

    def test_of_type(self, registry):
        registry.create(ASType.HOSTING, date(2020, 1, 1), 1)
        registry.create(ASType.ISP_NSP, date(2020, 1, 1), 1)
        assert len(registry.of_type(ASType.HOSTING)) == 1

    def test_registered_between(self, registry):
        registry.create(ASType.OTHER, date(2019, 6, 1), 1)
        registry.create(ASType.OTHER, date(2023, 6, 1), 1)
        hits = registry.registered_between(date(2023, 1, 1), date(2024, 1, 1))
        assert len(hits) == 1

    def test_unique_asns(self, registry):
        a = registry.create(ASType.CDN, date(2018, 1, 1), 1)
        b = registry.create(ASType.CDN, date(2018, 1, 1), 1)
        assert a.asn != b.asn

    def test_age_years(self, registry):
        record = registry.create(ASType.OTHER, date(2020, 1, 1), 1)
        assert record.age_years(date(2021, 1, 1)) == pytest.approx(1.0, abs=0.01)
        assert record.age_years(date(2019, 1, 1)) == 0.0

    def test_announcing_window(self, registry):
        record = registry.create(
            ASType.OTHER, date(2020, 1, 1), 1, withdrawn=date(2022, 1, 1)
        )
        assert record.is_announcing(date(2021, 6, 1))
        assert not record.is_announcing(date(2022, 6, 1))
        assert not record.is_announcing(date(2019, 6, 1))


class TestBlockTable:
    """``lookup_asn``'s bisection agrees with the per-/24 map it replaced."""

    @pytest.fixture(scope="class")
    def population_registry(self):
        return build_base_population(RngTree(7).child("net"), 65).registry

    def test_matches_slash24_oracle(self, population_registry):
        registry = population_registry
        oracle = {
            base: record.asn
            for record in registry.records
            for prefix in record.prefixes
            for base in prefix.slash24_bases()
        }
        probes = []
        for record in registry.records:
            for prefix in record.prefixes:
                first = prefix.network
                last = first + prefix.num_addresses - 1
                probes += [first - 1, first, last, last + 1]
        # about a third of the random probes fall inside announced space
        top = 2 * max(probes)
        rng = random.Random(7)
        probes += [rng.randint(0, top) for _ in range(10_000)]
        for address in probes:
            expected = oracle.get(slash24_base(address))
            assert registry.lookup_asn(address) == expected, address

    def test_edges_of_the_address_space(self, population_registry):
        for address in (-1, 0, MAX_IPV4):
            assert population_registry.lookup(address) is None


class TestRouting:
    def test_deaggregate(self, registry):
        record = registry.create(ASType.OTHER, date(2020, 1, 1), 4)
        slash24s = deaggregate(record.prefixes)
        assert len(slash24s) == 4
        assert all(p.length == 24 for p in slash24s)

    def test_count_slash24(self, registry):
        record = registry.create(ASType.OTHER, date(2020, 1, 1), 13)
        assert count_slash24(record.prefixes) == 13

    def test_size_buckets(self, registry):
        one = registry.create(ASType.OTHER, date(2020, 1, 1), 1)
        small = registry.create(ASType.OTHER, date(2020, 1, 1), 49)
        big = registry.create(ASType.OTHER, date(2020, 1, 1), 50)
        assert size_bucket(one) == "one /24"
        assert size_bucket(small) == "less than 50 /24"
        assert size_bucket(big) == "more than 50 /24"


class TestHistoricalWhois:
    def test_before_registration_is_none(self, registry):
        record = registry.create(ASType.HOSTING, date(2022, 6, 1), 2)
        whois = HistoricalWhois(registry)
        rng = random.Random(0)
        address = record.random_ip(rng)
        assert whois.lookup(address, date(2022, 1, 1)) is None
        result = whois.lookup(address, date(2023, 1, 1))
        assert result is not None
        assert result.asn == record.asn

    def test_withdrawn_reported_not_announcing(self, registry):
        record = registry.create(
            ASType.HOSTING, date(2020, 1, 1), 2, withdrawn=date(2022, 1, 1)
        )
        whois = HistoricalWhois(registry)
        address = record.random_ip(random.Random(0))
        result = whois.lookup(address, date(2023, 1, 1))
        assert result is not None and not result.announcing

    def test_accepts_dotted_strings(self, registry):
        record = registry.create(ASType.HOSTING, date(2020, 1, 1), 1)
        whois = HistoricalWhois(registry)
        from repro.net.ipv4 import int_to_ip

        dotted = int_to_ip(record.random_ip(random.Random(0)))
        assert whois.lookup(dotted, date(2021, 1, 1)).asn == record.asn

    def test_unrouted_space(self, registry):
        whois = HistoricalWhois(registry)
        assert whois.lookup("203.0.113.9", date(2022, 1, 1)) is None
