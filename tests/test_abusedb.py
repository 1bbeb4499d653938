"""Abuse feeds, Killnet list, Shadowserver report."""

from __future__ import annotations

import pytest

from repro.abusedb.aggregate import build_abuse_datasets
from repro.abusedb.feeds import ALWAYS_KNOWN_STRAINS
from repro.abusedb.killnet import MIN_OVERLAP, build_killnet_list
from repro.abusedb.shadowserver import build_shadowserver_report
from repro.attackers.malware import MalwareFactory, MalwareFamily
from repro.util.hashing import sha256_hex
from repro.util.rng import RngTree


@pytest.fixture
def factory():
    factory = MalwareFactory(RngTree(3))
    # populate the catalogue with a spread of variants
    for family in (MalwareFamily.MIRAI, MalwareFamily.GAFGYT, MalwareFamily.DOFLOO):
        for day in range(0, 700, 7):
            factory.sample_for(family, f"stream-{family.value}", 738000 + day)
    return factory


class TestFeeds:
    def test_coverage_is_minority(self, factory):
        abuse = build_abuse_datasets(factory, [])
        total = len(factory.catalogue)
        known = sum(1 for h in factory.catalogue if abuse.label(h))
        assert 0 < known < 0.25 * total  # paper: <5% at full population

    def test_labels_match_family_or_generic(self, factory):
        abuse = build_abuse_datasets(factory, [])
        for digest, sample in factory.catalogue.items():
            label = abuse.label(digest)
            if label is not None:
                assert label in (sample.family.value, "Malicious")

    def test_known_strains_widely_labelled(self, factory):
        abuse = build_abuse_datasets(factory, [])
        classic = [
            digest
            for digest, sample in factory.catalogue.items()
            if sample.strain in ALWAYS_KNOWN_STRAINS
        ]
        # (streams above use non-known strains, so craft one)
        for day in range(0, 700, 7):
            factory.sample_for(MalwareFamily.MIRAI, "tv", 738000 + day, strain="tvbox")
        abuse = build_abuse_datasets(factory, [])
        tvbox = [
            digest
            for digest, sample in factory.catalogue.items()
            if sample.strain == "tvbox"
        ]
        known = sum(1 for digest in tvbox if abuse.label(digest))
        assert known / len(tvbox) > 0.25

    def test_extra_hashes(self, factory):
        abuse = build_abuse_datasets(factory, [], extra_hashes={"ff" * 32: "CoinMiner"})
        assert abuse.label("ff" * 32) == "CoinMiner"

    def test_ip_coverage_about_56_percent(self, factory):
        ips = [f"10.0.{i // 256}.{i % 256}" for i in range(800)]
        abuse = build_abuse_datasets(factory, ips)
        reported = sum(1 for ip in ips if abuse.lookup_ip(ip) is not None)
        assert 0.48 < reported / len(ips) < 0.64

    def test_unknown_lookups(self, factory):
        abuse = build_abuse_datasets(factory, [])
        assert abuse.label("00" * 32) is None
        assert abuse.lookup_ip("203.0.113.1") is None

    def test_feed_access(self, factory):
        abuse = build_abuse_datasets(factory, [])
        assert abuse.feed("VirusTotal").name == "VirusTotal"
        with pytest.raises(KeyError):
            abuse.feed("nope")

    def test_virustotal_supersets_others(self, factory):
        abuse = build_abuse_datasets(factory, [])
        vt = set(abuse.feed("VirusTotal").hash_records)
        for name in ("abuse.ch", "ArmstrongTechs"):
            assert set(abuse.feed(name).hash_records) <= vt

    def test_deterministic(self, factory):
        a = build_abuse_datasets(factory, [])
        b = build_abuse_datasets(factory, [])
        assert [feed.hash_records for feed in a.feeds] == [
            feed.hash_records for feed in b.feeds
        ]


class TestKillnet:
    def test_overlap_with_actor_pool(self):
        from repro.net.population import build_base_population

        population = build_base_population(RngTree(4).child("net"))
        actor_ips = [f"172.2.3.{i}" for i in range(1, 40)]
        killnet = build_killnet_list(actor_ips, population, RngTree(4))
        overlap = killnet & set(actor_ips)
        assert len(overlap) >= MIN_OVERLAP
        assert len(killnet - set(actor_ips)) > len(overlap)  # mostly noise

    def test_empty_pool(self):
        from repro.net.population import build_base_population

        population = build_base_population(RngTree(4).child("net"))
        killnet = build_killnet_list([], population, RngTree(4))
        assert killnet  # still a list, just noise


class TestShadowserver:
    def test_mdrfckr_key_most_prevalent(self):
        report = build_shadowserver_report("KEY-A mdrfckr", "KEY-B rapper", 1e-4, RngTree(4))
        assert report.most_prevalent() == sha256_hex("KEY-A mdrfckr")
        assert report.host_count(sha256_hex("KEY-A mdrfckr")) >= 6

    def test_unknown_key_zero(self):
        report = build_shadowserver_report("A", "B", 1e-4, RngTree(4))
        assert report.host_count("nope") == 0

    def test_tail_of_other_keys(self):
        report = build_shadowserver_report("A", "B", 1e-4, RngTree(4))
        assert len(report.hosts_by_key) >= 10
