"""Figure 11: Cowrie default-account fingerprinting."""

from __future__ import annotations

from repro.analysis.logins import default_account_stats
from repro.config import PAPER
from repro.experiments.base import Experiment, register


@register
class Fig11CowrieDefaults(Experiment):
    """phil (succeeds) vs richard (legacy, fails) login probing."""

    experiment_id = "fig11"
    title = "Logins with Cowrie default usernames"
    paper_reference = "Figure 11"

    def run(self, dataset):
        ssh = dataset.table.ssh
        phil = default_account_stats(ssh, "phil", dataset.whois)
        richard = default_account_stats(ssh, "richard", dataset.whois)
        months = sorted(set(phil.monthly) | set(richard.monthly))
        rows = [
            [month, phil.monthly.get(month, 0), richard.monthly.get(month, 0)]
            for month in months
        ]
        notes = [
            f"phil: {phil.sessions} sessions ({phil.successes} successful) "
            f"from {phil.unique_ips} IPs in {phil.unique_ases} ASes "
            f"(paper: ~{PAPER.phil_sessions // 1000}k sessions, "
            f">{PAPER.phil_client_ips // 1000}k IPs, >"
            f"{PAPER.phil_ases // 1000}k ASes at full scale)",
            f"phil sessions with no commands after login: "
            f"{phil.silent_fraction:.0%} (paper: >90% — honeypot "
            "fingerprinting, not compromise)",
            f"richard: {richard.sessions} attempts, {richard.successes} "
            "successes (the deployment runs post-2020 Cowrie, so richard "
            "always fails)",
        ]
        return self.result(
            ["month", "phil logins", "richard attempts"], rows, notes
        )
