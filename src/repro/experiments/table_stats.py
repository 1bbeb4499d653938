"""Dataset statistics (paper section 3.3) — the headline volumes."""

from __future__ import annotations

from repro.analysis.categories import SessionCategory, category_counts
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.text import percentage


@register
class DatasetStats(Experiment):
    """Total/SSH session counts and the four-category breakdown."""

    experiment_id = "table_stats"
    title = "Dataset statistics (section 3.3)"
    paper_reference = "section 3.3"

    def run(self, dataset):
        db = dataset.database
        total = len(db)
        ssh_rows = dataset.table.ssh
        ssh = ssh_rows.sessions
        counts = category_counts(ssh, ssh_rows.login)
        scale = dataset.config.scale
        rows = [
            ["total sessions", total, PAPER.total_sessions,
             f"{total / scale / PAPER.total_sessions:.2f}"],
            ["ssh sessions", len(ssh), PAPER.ssh_sessions,
             f"{len(ssh) / scale / PAPER.ssh_sessions:.2f}"],
            ["unique client IPs", len(db.unique_client_ips()),
             PAPER.unique_client_ips, "-"],
        ]
        paper_by_category = {
            SessionCategory.SCANNING: PAPER.scanning_sessions,
            SessionCategory.SCOUTING: PAPER.scouting_sessions,
            SessionCategory.INTRUSION: PAPER.intrusion_sessions,
            SessionCategory.COMMAND_EXECUTION: PAPER.command_sessions,
        }
        for category, paper_value in paper_by_category.items():
            measured = counts.get(category, 0)
            rows.append(
                [
                    category.value,
                    measured,
                    paper_value,
                    f"{measured / scale / paper_value:.2f}",
                ]
            )
        from repro.analysis.commands_stats import command_visibility

        telnet = total - len(ssh)
        visibility = command_visibility(db.command_sessions())
        notes = [
            "ratio column = measured/(scale×paper); 1.00 means the scaled "
            "volume matches the paper exactly",
            f"scouting share measured "
            f"{percentage(counts.get(SessionCategory.SCOUTING, 0), len(ssh)):.1f}% "
            f"vs paper {percentage(PAPER.scouting_sessions, PAPER.ssh_sessions):.1f}%",
            f"telnet sessions: {telnet} "
            f"({percentage(telnet, total):.0f}% of all; paper: "
            f"{percentage(PAPER.total_sessions - PAPER.ssh_sessions, PAPER.total_sessions):.0f}% "
            "— recorded but excluded from the SSH analyses)",
            f"unknown command lines: {visibility.unknown_fraction:.1%} of "
            f"{visibility.total_lines}; most common unknown commands: "
            f"{visibility.top_unknown_commands[:4]} (the scp/rsync "
            "visibility boundary of section 3.2)",
        ]
        return self.result(
            ["metric", "measured", "paper", "scaled ratio"], rows, notes
        )
