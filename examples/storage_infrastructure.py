#!/usr/bin/env python3
"""Explore the malware-storage ecosystem (paper section 7).

Extracts the (client IP, storage IP) download observations from the
simulated honeynet, joins them against historical WHOIS, and prints the
Figure 7 Sankey flows, the Figure 8 AS age/size skew, and the Figure 9
activity-day recalls, with the paper's values alongside.

Run:  python examples/storage_infrastructure.py [--scale 1e-4]
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro import SimulationConfig, build_dataset
from repro.analysis.storage import (
    AGE_BUCKETS,
    SIZE_BUCKETS,
    infrastructure_observations,
    monthly_age_buckets,
    reappearance_after,
    recall_distribution,
    same_ip_fraction,
    summarize_storage_ases,
)
from repro.util.text import ascii_series, format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    dataset = build_dataset(SimulationConfig(scale=args.scale, seed=args.seed))
    observations = dataset.download_observations()
    infra = infrastructure_observations(observations)
    print(
        f"download observations: {len(observations)} "
        f"({len({o.storage_ip for o in observations})} storage IPs, "
        f"{len({o.client_ip for o in observations})} download clients)"
    )
    print(
        f"storage IP == client IP in {same_ip_fraction(observations):.0%} "
        "of observations (paper: 20%)\n"
    )

    summary = summarize_storage_ases(infra, dataset.whois, dataset.config.end)
    print(
        f"storage-AS census: {summary.total_ases} ASes "
        f"({summary.hosting_ases} hosting, {summary.isp_ases} ISP/NSP, "
        f"{summary.down_ases} now down) — paper: 388 (358/30/36)\n"
    )

    print("AS age of storage at download time (paper: >35% <1y, >70% <5y):")
    ages = [summary.age_session_shares.get(bucket, 0.0) for bucket in AGE_BUCKETS]
    print(ascii_series(list(AGE_BUCKETS), [round(a * 100, 1) for a in ages]))
    print()

    print("AS size in /24s (paper: ~20% single /24, ~50% under fifty):")
    sizes = [summary.size_session_shares.get(bucket, 0.0) for bucket in SIZE_BUCKETS]
    print(ascii_series(list(SIZE_BUCKETS), [round(s * 100, 1) for s in sizes]))
    print()

    print("activity-day recall (Figure 9):")
    rows = []
    for name, days in (("1-week", 7.0), ("4-week", 28.0), ("all", float("inf"))):
        totals: Counter = Counter()
        for counter in recall_distribution(infra, days).values():
            totals.update(counter)
        grand = sum(totals.values()) or 1
        top = ", ".join(
            f"{cls}:{count / grand:.0%}" for cls, count in totals.most_common(4)
        )
        rows.append([name, top])
    print(format_table(["recall", "activity-span distribution"], rows))
    print(
        f"\nIPs reappearing after ≥6 months: "
        f"{reappearance_after(infra):.0%} (paper: ~25%)"
    )


if __name__ == "__main__":
    main()
