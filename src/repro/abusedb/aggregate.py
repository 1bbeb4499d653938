"""Facade over all abuse feeds ("the abuse datasets", section 3.4)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.abusedb.feeds import AbuseFeed, build_feeds
from repro.abusedb.model import HashRecord, IPRecord
from repro.attackers.malware import MalwareFactory


@dataclass
class AbuseDatasets:
    """Cross-feed lookup interface used by all analyses."""

    feeds: list[AbuseFeed]

    def lookup_hash(self, sha256: str) -> HashRecord | None:
        """First feed that knows the hash wins (they agree on labels)."""
        for feed in self.feeds:
            record = feed.lookup_hash(sha256)
            if record is not None:
                return record
        return None

    def label(self, sha256: str) -> str | None:
        record = self.lookup_hash(sha256)
        return None if record is None else record.label

    def lookup_ip(self, ip: str) -> IPRecord | None:
        for feed in self.feeds:
            record = feed.lookup_ip(ip)
            if record is not None:
                return record
        return None

    def feed(self, name: str) -> AbuseFeed:
        for feed in self.feeds:
            if feed.name == name:
                return feed
        raise KeyError(name)


def build_abuse_datasets(
    factory: MalwareFactory,
    storage_ips: list[str],
    extra_hashes: dict[str, str] | None = None,
) -> AbuseDatasets:
    """Construct the aggregate from the simulation's ground truth."""
    return AbuseDatasets(build_feeds(factory, storage_ips, extra_hashes))
