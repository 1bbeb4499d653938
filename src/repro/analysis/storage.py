"""Malware storage-location analyses (paper section 7, Figures 7-9, 17).

Works from sessions with download commands: the URL host of the fetch
is the storage location (captured or not — a refusing server is still
storage infrastructure).  Enrichment (AS type, age, size) goes through the historical
WHOIS substrate as of the session date.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, timedelta

from repro.net.asn import ASType
from repro.net.whois import HistoricalWhois
from repro.honeypot.session import SessionRecord
from repro.util.timeutils import month_key

_HOST_PATTERN = re.compile(r"^[a-z+]+://([^/:]+)")
_IPV4_PATTERN = re.compile(r"^(?:\d{1,3}\.){3}\d{1,3}$")


def uri_host(uri: str) -> str | None:
    """Extract the host part of a recorded URI."""
    match = _HOST_PATTERN.match(uri)
    return match.group(1) if match else None


@dataclass(frozen=True)
class DownloadObservation:
    """One (session, storage IP) pair with its context."""

    session_id: str
    day: date
    client_ip: str
    storage_ip: str
    hashes: tuple[str, ...]


def download_observations(
    sessions: list[SessionRecord], days: list[date]
) -> list[DownloadObservation]:
    """Sessions with download commands, with their storage IPs.

    ``days`` holds each session's day, aligned with ``sessions``.
    Following the paper ("IP addresses involved in download commands"),
    every session whose commands reference an IPv4-hosted URI counts,
    whether or not the fetch succeeded; captured hashes are attached
    when present.  A session with several distinct storage hosts yields
    one observation per host.
    """
    observations: list[DownloadObservation] = []
    for session, day in zip(sessions, days):
        hosts: list[str] = []
        for uri in session.uris:
            host = uri_host(uri)
            if host and _IPV4_PATTERN.match(host) and host not in hosts:
                hosts.append(host)
        if not hosts:
            continue
        hashes = tuple(sorted(set(session.transfer_hashes())))
        for host in hosts:
            observations.append(
                DownloadObservation(
                    session_id=session.session_id,
                    day=day,
                    client_ip=session.client_ip,
                    storage_ip=host,
                    hashes=hashes,
                )
            )
    return observations


def client_storage_flows(
    observations: list[DownloadObservation], whois: HistoricalWhois
) -> Counter:
    """Figure 7's Sankey flows: (client AS type, storage AS type) pairs.

    The special key element "same-ip" marks flows where the storage IP
    equals the attacking client IP.
    """
    flows: Counter = Counter()
    for obs in observations:
        client = whois.lookup(obs.client_ip, obs.day)
        storage = whois.lookup(obs.storage_ip, obs.day)
        client_type = client.as_type.value if client else "unrouted"
        storage_type = storage.as_type.value if storage else "unrouted"
        same = obs.client_ip == obs.storage_ip
        flows[(client_type, storage_type, same)] += 1
    return flows


def flow_graph(flows: Counter) -> dict[str, dict[str, int]]:
    """Figure 7's Sankey as a weighted bipartite digraph.

    Maps ``client:<type>`` to ``{storage:<type>: count}``; the counts
    add up the same-IP and different-IP flows.  Sources and targets keep
    first-seen order, so iterating lists edges grouped by source.
    """
    graph: dict[str, dict[str, int]] = {}
    for (client_type, storage_type, _), count in flows.items():
        targets = graph.setdefault(f"client:{client_type}", {})
        target = f"storage:{storage_type}"
        targets[target] = targets.get(target, 0) + count
    return graph


def heaviest_edge(graph: dict[str, dict[str, int]]) -> tuple[str, str, int]:
    """The heaviest ``(source, target, count)`` edge of :func:`flow_graph`.

    Ties go to the first edge in source-grouped order, not in insertion
    order.
    """
    return max(
        (
            (source, target, count)
            for source, targets in graph.items()
            for target, count in targets.items()
        ),
        key=lambda edge: edge[2],
    )


def same_ip_fraction(observations: list[DownloadObservation]) -> float:
    """Fraction of observations where client and storage IP coincide."""
    if not observations:
        return 0.0
    same = sum(1 for o in observations if o.client_ip == o.storage_ip)
    return same / len(observations)


def infrastructure_observations(
    observations: list[DownloadObservation],
) -> list[DownloadObservation]:
    """Observations pointing at dedicated storage (not self-hosted).

    Sessions serving the payload from the attacking client itself are
    shown in Figure 7's flows, but the storage-infrastructure census
    (AS age/size/type, activity days) concerns dedicated hosts.
    """
    return [o for o in observations if o.storage_ip != o.client_ip]


AGE_BUCKETS = ("AS younger than 1 year", "AS younger than 5 years", "AS older than 5 years")


def age_bucket(age_years: float) -> str:
    if age_years < 1.0:
        return AGE_BUCKETS[0]
    if age_years < 5.0:
        return AGE_BUCKETS[1]
    return AGE_BUCKETS[2]


def monthly_age_buckets(
    observations: list[DownloadObservation], whois: HistoricalWhois
) -> dict[str, Counter]:
    """Figure 8(a): per month, sessions by storage-AS age bucket."""
    result: dict[str, Counter] = defaultdict(Counter)
    for obs in observations:
        record = whois.lookup(obs.storage_ip, obs.day)
        if record is None:
            continue
        result[month_key(obs.day)][age_bucket(record.age_years)] += 1
    return dict(result)


SIZE_BUCKETS = ("AS ann. only one /24", "AS ann. less than 50 /24", "AS ann. more than 50 /24")


def size_bucket_name(num_slash24: int) -> str:
    if num_slash24 == 1:
        return SIZE_BUCKETS[0]
    if num_slash24 < 50:
        return SIZE_BUCKETS[1]
    return SIZE_BUCKETS[2]


def monthly_size_buckets(
    observations: list[DownloadObservation], whois: HistoricalWhois
) -> dict[str, Counter]:
    """Figure 8(b): per month, sessions by storage-AS size bucket."""
    result: dict[str, Counter] = defaultdict(Counter)
    for obs in observations:
        record = whois.lookup(obs.storage_ip, obs.day)
        if record is None:
            continue
        result[month_key(obs.day)][size_bucket_name(record.num_slash24)] += 1
    return dict(result)


def monthly_as_types(
    observations: list[DownloadObservation], whois: HistoricalWhois
) -> dict[str, Counter]:
    """Figure 17: per month, sessions by storage-AS type."""
    result: dict[str, Counter] = defaultdict(Counter)
    for obs in observations:
        record = whois.lookup(obs.storage_ip, obs.day)
        bucket = record.as_type.value if record else "unrouted"
        result[month_key(obs.day)][bucket] += 1
    return dict(result)


@dataclass
class StorageAsSummary:
    """Section 7's storage-AS census."""

    total_ases: int
    hosting_ases: int
    isp_ases: int
    down_ases: int
    age_session_shares: dict[str, float]
    size_session_shares: dict[str, float]


def summarize_storage_ases(
    observations: list[DownloadObservation],
    whois: HistoricalWhois,
    as_of: date,
) -> StorageAsSummary:
    """Census of the distinct ASes hosting malicious files."""
    seen_asns: dict[int, object] = {}
    age_counts: Counter = Counter()
    size_counts: Counter = Counter()
    for obs in observations:
        record = whois.lookup_record(obs.storage_ip, obs.day)
        if record is None:
            continue
        seen_asns[record.asn] = record
        age_counts[age_bucket(record.age_years(obs.day))] += 1
        size_counts[size_bucket_name(record.num_slash24)] += 1
    hosting = sum(
        1 for r in seen_asns.values() if r.as_type == ASType.HOSTING
    )
    isp = sum(1 for r in seen_asns.values() if r.as_type == ASType.ISP_NSP)
    down = sum(1 for r in seen_asns.values() if not r.is_announcing(as_of))
    total_age = sum(age_counts.values()) or 1
    total_size = sum(size_counts.values()) or 1
    return StorageAsSummary(
        total_ases=len(seen_asns),
        hosting_ases=hosting,
        isp_ases=isp,
        down_ases=down,
        age_session_shares={
            bucket: count / total_age for bucket, count in age_counts.items()
        },
        size_session_shares={
            bucket: count / total_size for bucket, count in size_counts.items()
        },
    )


#: Figure 9's duration classes (in days; upper bounds, ascending).
DURATION_CLASSES: tuple[tuple[str, float], ...] = (
    ("<1d", 1),
    ("<4d", 4),
    ("<1w", 7),
    ("<2w", 14),
    ("<4w", 28),
    ("<8w", 56),
    ("<16w", 112),
    ("<0.5y", 182),
    ("<1y", 365),
    (">=1y", float("inf")),
)


def duration_class(days_active: float) -> str:
    for name, upper in DURATION_CLASSES:
        if days_active < upper:
            return name
    return DURATION_CLASSES[-1][0]


def activity_days_by_ip(
    observations: list[DownloadObservation],
) -> dict[str, list[date]]:
    """Per storage IP: sorted distinct days it served a download."""
    days: dict[str, set[date]] = defaultdict(set)
    for obs in observations:
        days[obs.storage_ip].add(obs.day)
    return {ip: sorted(values) for ip, values in days.items()}


def recall_distribution(
    observations: list[DownloadObservation],
    recall_days: float,
) -> dict[str, Counter]:
    """Figure 9: per month, IPs bucketed by activity span within recall.

    For each storage IP seen in a month, its activity span is the range
    of its active days inside the recall window ending at its last
    appearance that month (infinite recall = the whole dataset).
    """
    by_ip = activity_days_by_ip(observations)
    seen_in_month: dict[str, set[str]] = defaultdict(set)
    last_in_month: dict[tuple[str, str], date] = {}
    for obs in observations:
        month = month_key(obs.day)
        seen_in_month[month].add(obs.storage_ip)
        key = (month, obs.storage_ip)
        if key not in last_in_month or obs.day > last_in_month[key]:
            last_in_month[key] = obs.day
    result: dict[str, Counter] = defaultdict(Counter)
    for month, ips in seen_in_month.items():
        for ip in ips:
            anchor = last_in_month[(month, ip)]
            if recall_days == float("inf"):
                window_start = date.min
            else:
                window_start = anchor - timedelta(days=int(recall_days))
            in_window = [
                d for d in by_ip[ip] if window_start <= d <= anchor
            ]
            span = (in_window[-1] - in_window[0]).days + 1 if in_window else 1
            # a single observed day counts as sub-day activity
            days_active = span if len(in_window) > 1 else 0.5
            result[month][duration_class(days_active)] += 1
    return dict(result)


def reappearance_after(
    observations: list[DownloadObservation], gap_days: int = 180
) -> float:
    """Fraction of storage IPs that reappear after a gap ≥ ``gap_days``."""
    by_ip = activity_days_by_ip(observations)
    if not by_ip:
        return 0.0
    reappeared = 0
    for days in by_ip.values():
        gaps = [
            (later - earlier).days
            for earlier, later in zip(days, days[1:])
        ]
        if any(gap >= gap_days for gap in gaps):
            reappeared += 1
    return reappeared / len(by_ip)
