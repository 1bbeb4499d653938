"""Figure 13: mdrfckr-initial vs mdrfckr-variant vs the 3245 campaign."""

from __future__ import annotations

from repro.analysis.logins import rows_with_password
from repro.analysis.mdrfckr_case import (
    CAMPAIGN_PASSWORD,
    ip_overlap_with_campaign,
    mdrfckr_sessions,
    split_variants,
)
from repro.analysis.monthly import monthly_counts
from repro.analysis.table import take
from repro.config import PAPER
from repro.experiments.base import Experiment, register


@register
class Fig13MdrfckrVariant(Experiment):
    """Monthly volumes of the three correlated behaviours."""

    experiment_id = "fig13"
    title = "mdrfckr behaviour change and the 3245gs5662d34 campaign"
    paper_reference = "Figure 13"

    def run(self, dataset):
        ssh = dataset.table.ssh
        mdrfckr = mdrfckr_sessions(dataset.table.commands)
        initial, variant = split_variants(mdrfckr)
        campaign = take(ssh, rows_with_password(ssh.login, CAMPAIGN_PASSWORD))
        initial_monthly = monthly_counts(initial.month)
        variant_monthly = monthly_counts(variant.month)
        campaign_monthly = monthly_counts(campaign.month)
        months = sorted(
            set(initial_monthly) | set(variant_monthly) | set(campaign_monthly)
        )
        rows = [
            [
                month,
                initial_monthly.get(month, 0),
                variant_monthly.get(month, 0),
                campaign_monthly.get(month, 0),
            ]
            for month in months
        ]
        variant_months = sorted(variant_monthly)
        campaign_months = sorted(campaign_monthly)
        overlap = ip_overlap_with_campaign(mdrfckr.sessions, campaign.sessions)
        active_ratio_months = [
            m
            for m in months
            if initial_monthly.get(m, 0) > 0 and variant_monthly.get(m, 0) > 0
        ]
        ratios = [
            initial_monthly[m] / variant_monthly[m]
            for m in active_ratio_months
        ]
        mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0
        notes = [
            f"variant first month: "
            f"{variant_months[0] if variant_months else '-'}; campaign first "
            f"month: {campaign_months[0] if campaign_months else '-'} "
            "(paper: both begin 2022-12-08)",
            f"initial:variant volume ratio ≈ {mean_ratio:.0f}x "
            "(paper: at least an order of magnitude)",
            f"client-IP overlap between mdrfckr and the campaign: "
            f"{overlap:.1%} (paper: {PAPER.mdrfckr_ip_overlap:.1%})",
            "variant behaviour: no root-password change, removes "
            "/tmp/auth.sh and /tmp/secure.sh (WorkMiner), clears "
            "/etc/hosts.deny — exactly the paper's four changes",
        ]
        return self.result(
            ["month", "mdrfckr-initial", "mdrfckr-variant", "login-3245"],
            rows,
            notes,
        )
