"""Base AS population and geography."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.net.asn import ASType
from repro.net.geo import COUNTRIES, country_codes, pick_countries, random_country
from repro.net.population import CLIENT_AS_PLAN, build_base_population
from repro.util.rng import RngTree


@pytest.fixture(scope="module")
def population():
    return build_base_population(RngTree(2).child("net"))


class TestGeo:
    def test_country_catalogue(self):
        codes = country_codes()
        assert len(codes) == len(set(codes))
        assert len(codes) >= 55
        assert all(len(code) == 2 for code in codes)

    def test_pick_countries_distinct(self):
        rng = random.Random(0)
        chosen = pick_countries(rng, 55)
        assert len(chosen) == 55
        assert len(set(chosen)) == 55

    def test_pick_too_many(self):
        with pytest.raises(ValueError):
            pick_countries(random.Random(0), len(COUNTRIES) + 1)

    def test_random_country_weighted(self):
        rng = random.Random(0)
        draws = Counter(random_country(rng) for _ in range(3000))
        # heavy countries should clearly outdraw light ones
        assert draws["US"] + draws["CN"] > draws.get("EE", 0) * 5


class TestBasePopulation:
    def test_counts_match_plan(self, population):
        expected = sum(count for _, count, _, _ in CLIENT_AS_PLAN)
        assert len(population.client_ases) == expected
        assert len(population.honeypot_ases) == 65

    def test_weights_align(self, population):
        assert len(population.client_weights) == len(population.client_ases)
        assert abs(sum(population.client_weights) - 1.0) < 1e-6

    def test_type_mix(self, population):
        types = Counter(record.as_type for record in population.client_ases)
        assert types[ASType.ISP_NSP] == 260
        assert types[ASType.CDN] == 10

    def test_weighted_pick_favours_isps(self, population):
        rng = random.Random(0)
        draws = Counter(
            population.weighted_client_as(rng).as_type for _ in range(4000)
        )
        assert draws[ASType.ISP_NSP] / 4000 > 0.6

    def test_registrations_predate_window(self, population):
        from datetime import date

        for record in population.client_ases:
            assert record.registered <= date(2021, 1, 1)

    def test_registry_covers_all(self, population):
        for record in population.client_ases[:20]:
            assert record.asn in population.registry

    def test_deterministic(self):
        a = build_base_population(RngTree(2).child("net"))
        b = build_base_population(RngTree(2).child("net"))
        assert [r.asn for r in a.client_ases] == [r.asn for r in b.client_ases]
        assert [r.registered for r in a.client_ases] == [
            r.registered for r in b.client_ases
        ]
