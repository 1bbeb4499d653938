#!/usr/bin/env python3
"""Reproduce the section-9 "mdrfckr" case study end to end.

Selects the actor's sessions forensically (via the Table-1 classifier),
splits the behavioural variants, decodes the base64 uploads seen during
low-activity windows, recovers the C2 IP set from the cleanup scripts,
correlates activity collapses with documented external events, and
cross-references Killnet and Shadowserver.

Run:  python examples/mdrfckr_case_study.py [--scale 1e-4]
"""

from __future__ import annotations

import argparse
from collections import Counter

from repro import SimulationConfig, build_dataset
from repro.analysis.logins import rows_with_password
from repro.analysis.mdrfckr_case import (
    CAMPAIGN_PASSWORD,
    base64_uploader_ips,
    c2_ips_from_cleanups,
    correlate_events,
    daily_activity,
    decode_base64_uploads,
    detect_low_activity_windows,
    ip_overlap_with_campaign,
    mdrfckr_sessions,
    split_variants,
)
from repro.attackers.bots.mdrfckr import MDRFCKR_KEY
from repro.util.hashing import sha256_hex


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    dataset = build_dataset(SimulationConfig(scale=args.scale, seed=args.seed))
    ssh = dataset.table.ssh

    actor = mdrfckr_sessions(dataset.table.commands)
    initial, variant = split_variants(actor)
    print(f"mdrfckr sessions: {len(actor)} "
          f"({len(initial)} initial, {len(variant)} variant) "
          f"from {len({s.client_ip for s in actor.sessions})} client IPs")

    campaign = [
        ssh.sessions[row] for row in rows_with_password(ssh.login, CAMPAIGN_PASSWORD)
    ]
    overlap = ip_overlap_with_campaign(actor.sessions, campaign)
    print(f"client-IP overlap with the 3245gs5662d34 campaign: {overlap:.1%}")

    activity = daily_activity(actor)
    per_day = {day: count for day, (count, _) in activity.items()}
    windows = detect_low_activity_windows(per_day)
    correlation = correlate_events(windows)
    print(f"\nlow-activity windows detected: {len(windows)}")
    for event in correlation.matched_events:
        print(f"  matched event {event.start}..{event.end}: {event.description}")
    for event in correlation.unmatched_events:
        print(f"  UNMATCHED event {event.start}..{event.end}")

    decoded = decode_base64_uploads(actor)
    kinds = Counter(script.kind for script in decoded)
    print(f"\nbase64 uploads decoded: {len(decoded)} {dict(kinds)}")
    print(f"distinct uploader IPs: {len(base64_uploader_ips(decoded))}")
    c2 = sorted(c2_ips_from_cleanups(decoded))
    print(f"C2 IPs referenced by cleanup scripts: {c2}")

    killnet_overlap = {s.client_ip for s in actor.sessions} & dataset.killnet_ips
    print(f"\nKillnet proxy-list overlap: {len(killnet_overlap)} IPs")
    key_hash = sha256_hex(MDRFCKR_KEY)
    print(
        "Shadowserver compromised-SSH report: mdrfckr key on "
        f"{dataset.shadowserver.host_count(key_hash)} hosts "
        f"(most prevalent: {dataset.shadowserver.most_prevalent() == key_hash})"
    )


if __name__ == "__main__":
    main()
