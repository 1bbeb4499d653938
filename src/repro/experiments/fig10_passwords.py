"""Figure 10: top intrusion passwords over time."""

from __future__ import annotations

import numpy as np

from repro.analysis.logins import (
    FIGURE10_PASSWORDS,
    monthly_password_counts,
    sessions_with_password,
    top_passwords,
)
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.timeutils import from_epoch


def _monthly_correlation(per_month, password_a: str, password_b: str) -> float:
    """Pearson correlation of two passwords' monthly series."""
    months = sorted(per_month)
    series_a = [per_month[m].get(password_a, 0) for m in months]
    series_b = [per_month[m].get(password_b, 0) for m in months]
    if len(months) < 3 or not any(series_a) or not any(series_b):
        return 0.0
    if len(set(series_a)) == 1 or len(set(series_b)) == 1:
        return 0.0
    return float(np.corrcoef(series_a, series_b)[0, 1])


@register
class Fig10Passwords(Experiment):
    """Monthly counts of the five tracked passwords."""

    experiment_id = "fig10"
    title = "Top-5 intrusion passwords over time"
    paper_reference = "Figure 10"

    def run(self, dataset):
        ssh = dataset.database.ssh_sessions()
        logged_in = [s for s in ssh if s.login_succeeded]
        per_month = monthly_password_counts(logged_in)
        rows = []
        for month in sorted(per_month):
            counter = per_month[month]
            rows.append(
                [month]
                + [counter.get(pw, 0) for pw in FIGURE10_PASSWORDS]
            )
        overall = top_passwords(logged_in, 5)
        campaign = sessions_with_password(logged_in, "3245gs5662d34")
        campaign_first = (
            from_epoch(min(s.start for s in campaign)).isoformat()
            if campaign
            else "-"
        )
        campaign_ips = len({s.client_ip for s in campaign})
        silent = sum(1 for s in campaign if not s.executed_commands)
        # the dreambox/vertex synchronization check
        sync_months = [
            m
            for m, c in per_month.items()
            if c.get("dreambox", 0) > 0 or c.get("vertex25ektks123", 0) > 0
        ]
        both = [
            m
            for m in sync_months
            if per_month[m].get("dreambox", 0) > 0
            and per_month[m].get("vertex25ektks123", 0) > 0
        ]
        correlation = _monthly_correlation(
            per_month, "dreambox", "vertex25ektks123"
        )
        notes = [
            f"overall top passwords: {overall}",
            f"3245gs5662d34: {len(campaign)} sessions from {campaign_ips} "
            f"IPs, first seen {campaign_first} (paper: "
            f"{PAPER.login3245_sessions:,} sessions, "
            f"{PAPER.login3245_client_ips:,} IPs, from 2022-12-08 18:00 UTC)",
            f"3245gs5662d34 sessions executing no commands: "
            f"{silent}/{len(campaign)} (paper: all)",
            f"dreambox/vertex synchronized months: {len(both)}/"
            f"{len(sync_months)} active months overlap; monthly Pearson "
            f"correlation {correlation:.2f} (paper: synchronized — one "
            "TV-box botnet)",
        ]
        return self.result(
            ["month", *FIGURE10_PASSWORDS], rows, notes
        )
