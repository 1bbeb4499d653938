"""IP pools, malware factory, storage infrastructure."""

from __future__ import annotations

import random
from collections import Counter
from datetime import date, timedelta

import pytest

from repro.attackers.infrastructure import HostArchetype, StorageInfrastructure
from repro.attackers.ippool import ClientIPPool, SharedPool
from repro.attackers.malware import MalwareFactory, MalwareFamily
from repro.config import DEFAULT_CONFIG
from repro.net.population import build_base_population
from repro.util.rng import RngTree
from tests.test_util_rng import linear_scan_choice


@pytest.fixture(scope="module")
def population():
    return build_base_population(RngTree(5).child("net"))


class TestClientIPPool:
    def test_size_scales(self, population):
        pool = ClientIPPool("t", population, RngTree(5), 100_000, 1e-4)
        assert len(pool) == 10

    def test_floor(self, population):
        pool = ClientIPPool("t2", population, RngTree(5), 10, 1e-6)
        assert len(pool) == 4

    def test_ips_unique(self, population):
        pool = ClientIPPool("t3", population, RngTree(5), 500_000, 1e-4)
        assert len(set(pool.ips)) == len(pool)

    def test_deterministic(self, population):
        a = ClientIPPool("same", population, RngTree(5), 1000, 1e-2)
        b = ClientIPPool("same", population, RngTree(5), 1000, 1e-2)
        assert a.ips == b.ips

    def test_weighted_pick_has_heavy_hitters(self, population):
        pool = ClientIPPool("t4", population, RngTree(5), 2000, 1e-2)
        rng = random.Random(0)
        counts = Counter(pool.pick(rng) for _ in range(3000))
        top = counts.most_common(1)[0][1]
        assert top > 3000 / len(pool) * 2

    def test_sample_distinct(self, population):
        pool = ClientIPPool("t5", population, RngTree(5), 1000, 1e-2)
        sample = pool.sample(random.Random(0), 5)
        assert len(set(sample)) == 5


def reuse_weights(pool) -> list[tuple[str, float]]:
    """The Zipf reuse weights by pool rank, as the scan spelled them."""
    return [(ip, 1.0 / (rank + 1) ** 0.6) for rank, ip in enumerate(pool.ips)]


class TestPickEqualsLinearScan:
    """``pick`` draws what the per-draw linear scan it replaced drew,
    from the same generator state."""

    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("paper_ips", [1, 28, 40, 300])
    def test_pool(self, population, seed, paper_ips):
        pool = ClientIPPool(
            f"scan-{paper_ips}", population, RngTree(seed), paper_ips, 1.0
        )
        weighted = reuse_weights(pool)
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(2_000):
            assert pool.pick(rng) == linear_scan_choice(oracle, weighted)
        assert rng.getstate() == oracle.getstate()

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_shared_pool(self, population, seed):
        base = ClientIPPool("scan-base", population, RngTree(seed), 60, 1.0)
        shared = SharedPool("scan-shared", base, population, RngTree(seed))
        weighted = reuse_weights(shared)
        assert len(weighted) > len(base)
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(2_000):
            assert shared.pick(rng) == linear_scan_choice(oracle, weighted)
        assert rng.getstate() == oracle.getstate()


class TestSharedPool:
    def test_overlap_structure(self, population):
        base = ClientIPPool("base", population, RngTree(5), 5000, 1e-2)
        shared = SharedPool("shared", base, population, RngTree(5), overlap=0.9)
        base_ips = set(base.ips)
        shared_ips = set(shared.ips)
        assert base_ips <= shared_ips
        assert len(shared_ips) > len(base_ips)


class TestMalwareFactory:
    def factory(self):
        return MalwareFactory(RngTree(9))

    def test_base_sample_cached(self):
        factory = self.factory()
        a = factory.base_sample(MalwareFamily.MIRAI)
        b = factory.base_sample(MalwareFamily.MIRAI)
        assert a is b

    def test_strains_differ(self):
        factory = self.factory()
        a = factory.base_sample(MalwareFamily.MIRAI, "classic")
        b = factory.base_sample(MalwareFamily.MIRAI, "Corona")
        assert a.sha256 != b.sha256

    def test_variant_changes_hash(self):
        factory = self.factory()
        base = factory.base_sample(MalwareFamily.GAFGYT)
        assert base.variant(1).sha256 != base.sha256
        assert base.variant(1).sha256 != base.variant(2).sha256

    def test_weekly_rotation(self):
        factory = self.factory()
        day = date(2022, 3, 7).toordinal()
        same_week = factory.sample_for(MalwareFamily.MIRAI, "s", day)
        same_week2 = factory.sample_for(MalwareFamily.MIRAI, "s", day + 3)
        next_week = factory.sample_for(MalwareFamily.MIRAI, "s", day + 10)
        assert same_week.sha256 == same_week2.sha256
        assert same_week.sha256 != next_week.sha256

    def test_streams_independent(self):
        factory = self.factory()
        day = date(2022, 3, 7).toordinal()
        a = factory.sample_for(MalwareFamily.MIRAI, "stream-a", day)
        b = factory.sample_for(MalwareFamily.MIRAI, "stream-b", day)
        assert a.sha256 != b.sha256

    def test_catalogue_tracks_served(self):
        factory = self.factory()
        sample = factory.sample_for(MalwareFamily.DOFLOO, "s", 1)
        assert factory.catalogue[sample.sha256].family == MalwareFamily.DOFLOO

    def test_elf_vs_script_content(self):
        factory = self.factory()
        elf = factory.base_sample(MalwareFamily.MIRAI)
        script = factory.base_sample(MalwareFamily.COINMINER)
        assert elf.content.startswith(b"\x7fELF")
        assert script.content.startswith(b"#!/bin/sh")


class TestStorageInfrastructure:
    @pytest.fixture(scope="class")
    def infra(self, population):
        return StorageInfrastructure(DEFAULT_CONFIG, population, RngTree(5))

    def test_host_population(self, infra):
        assert len(infra.hosts) > 500
        archetypes = {h.archetype for h in infra.hosts}
        assert archetypes == set(HostArchetype)

    def test_ips_unique(self, infra):
        ips = [h.ip for h in infra.hosts]
        assert len(set(ips)) == len(ips)

    def test_schedules_inside_window(self, infra):
        for host in infra.hosts:
            for start, end in host.intervals:
                assert start <= end
                assert DEFAULT_CONFIG.start <= start
                assert end <= DEFAULT_CONFIG.end

    def test_as_registered_before_first_use(self, infra):
        registry = {record.asn: record for record in infra.ases}
        for host in infra.hosts:
            first_active = min(start for start, _ in host.intervals)
            assert registry[host.asn].registered < first_active

    def test_age_strata_present(self, infra):
        buckets = Counter()
        registry = {record.asn: record for record in infra.ases}
        for host in infra.hosts:
            first_active = min(start for start, _ in host.intervals)
            age = (first_active - registry[host.asn].registered).days
            if age < 365:
                buckets["young"] += 1
            elif age < 5 * 365:
                buckets["mid"] += 1
            else:
                buckets["old"] += 1
        total = sum(buckets.values())
        assert 0.3 < buckets["young"] / total < 0.55
        assert buckets["old"] / total > 0.1

    def test_size_strata_present(self, infra):
        sizes = Counter()
        registry = {record.asn: record for record in infra.ases}
        for record in infra.ases:
            if record.num_slash24 == 1:
                sizes["one"] += 1
            elif record.num_slash24 < 50:
                sizes["small"] += 1
            else:
                sizes["large"] += 1
        total = sum(sizes.values())
        assert 0.12 < sizes["one"] / total < 0.32
        assert sizes["large"] / total > 0.3

    def test_pick_host_prefers_active(self, infra):
        rng = random.Random(0)
        day = date(2023, 5, 10)
        active_ips = {h.ip for h in infra.active_hosts(day)}
        picks = {infra.pick_host(rng, day).ip for _ in range(40)}
        assert picks <= active_ips or not active_ips

    def test_pick_host_never_fails(self, infra):
        rng = random.Random(0)
        host = infra.pick_host(rng, date(2021, 12, 1))
        assert host is not None

    def test_ephemeral_hosts_single_day(self, infra):
        for host in infra.hosts:
            if host.archetype == HostArchetype.EPHEMERAL:
                assert all(start == end for start, end in host.intervals)

    def test_recurrent_hosts_have_long_gaps(self, infra):
        recurrent = [
            h for h in infra.hosts
            if h.archetype == HostArchetype.RECURRENT and len(h.intervals) > 1
        ]
        assert recurrent
        for host in recurrent[:10]:
            gaps = [
                (later[0] - earlier[1]).days
                for earlier, later in zip(host.intervals, host.intervals[1:])
            ]
            assert all(gap >= 120 for gap in gaps)


def is_active(host, day: date) -> bool:
    """The per-host interval check the storage calendar replaced."""
    return any(start <= day <= end for start, end in host.intervals)


def interval_scan(infra) -> dict[date, list]:
    """Day -> active hosts by scanning every host's intervals, for every
    day from 30 before the window to 30 after the last interval."""
    start = infra.config.start - timedelta(days=30)
    end = max(
        infra.config.end,
        *(last for host in infra.hosts for _, last in host.intervals),
    )
    days = (end - start).days + 31
    return {
        day: [host for host in infra.hosts if is_active(host, day)]
        for day in (start + timedelta(days=n) for n in range(days))
    }


def linear_scan_pick(infra, rng, candidates):
    """``pick_host`` before the calendar: fall back when no host is
    active, then walk the cumulative traffic weights (the oracle)."""
    if not candidates:
        candidates = [
            host
            for host in infra.hosts
            if host.archetype == HostArchetype.LONGLIVED
        ] or infra.hosts
    total = sum(host.traffic_weight for host in candidates)
    point = rng.random() * total
    cumulative = 0.0
    for host in candidates:
        cumulative += host.traffic_weight
        if point <= cumulative:
            return host
    return candidates[-1]


class TestStorageCalendar:
    """The day -> active-hosts calendar built at construction against
    the per-day interval scan it replaced."""

    @pytest.fixture(scope="class")
    def infra(self, population):
        return StorageInfrastructure(DEFAULT_CONFIG, population, RngTree(5))

    @pytest.fixture(scope="class")
    def scanned(self, infra):
        return interval_scan(infra)

    def test_active_hosts_match_the_interval_scan(self, infra, scanned):
        for day, expected in scanned.items():
            assert infra.active_hosts(day) == expected
        assert sum(not hosts for hosts in scanned.values()) >= 60
        comebacks = [host for host in infra.hosts if len(host.intervals) > 1]
        assert comebacks
        for host in comebacks:
            for start, end in host.intervals[1:]:
                assert host in infra.active_hosts(start)
                assert host in infra.active_hosts(end)

    def test_pick_host_matches_the_linear_scan(self, infra, scanned):
        days = list(scanned)
        rng, oracle_rng = random.Random(17), random.Random(17)
        fallbacks = 0
        for draw in range(12_000):
            day = days[(draw * 7) % len(days)]
            fallbacks += not scanned[day]
            assert infra.pick_host(rng, day) is linear_scan_pick(
                infra, oracle_rng, scanned[day]
            )
        assert rng.getstate() == oracle_rng.getstate()
        assert fallbacks > 500

    def test_schedules_overrunning_a_short_window(self, population):
        config = DEFAULT_CONFIG.replace(
            start=date(2022, 3, 1), end=date(2022, 3, 10)
        )
        infra = StorageInfrastructure(config, population, RngTree(5))
        scanned = interval_scan(infra)
        assert max(scanned) > config.end + timedelta(days=30)
        for day, expected in scanned.items():
            assert infra.active_hosts(day) == expected
        rng, oracle_rng = random.Random(4), random.Random(4)
        for day in scanned:
            assert infra.pick_host(rng, day) is linear_scan_pick(
                infra, oracle_rng, scanned[day]
            )
        assert rng.getstate() == oracle_rng.getstate()
