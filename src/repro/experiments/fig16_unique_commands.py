"""Figure 16 (appendix D): command uniqueness of exec sessions."""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.statechange import ExecOutcome
from repro.experiments.base import Experiment, register


@register
class Fig16UniqueCommands(Experiment):
    """Unique command strings per month, file-exists vs file-missing."""

    experiment_id = "fig16"
    title = "Unique exec-session commands: file exists vs missing"
    paper_reference = "Figure 16 (appendix D)"

    def run(self, dataset):
        unique_exists: dict[str, set[str]] = defaultdict(set)
        unique_missing: dict[str, set[str]] = defaultdict(set)
        commands = dataset.table.commands
        for session, month, outcome in zip(
            commands.sessions, commands.month, commands.outcome
        ):
            if outcome is None:
                continue
            bucket = (
                unique_exists
                if outcome == ExecOutcome.FILE_EXISTS
                else unique_missing
            )
            bucket[month].add(session.command_text)
        months = sorted(set(unique_exists) | set(unique_missing))
        rows = [
            [
                month,
                len(unique_exists.get(month, set())),
                len(unique_missing.get(month, set())),
            ]
            for month in months
        ]
        total_exists = len(set().union(*unique_exists.values())) if unique_exists else 0
        total_missing = len(set().union(*unique_missing.values())) if unique_missing else 0
        months_where_missing_higher = sum(
            1
            for month in months
            if len(unique_missing.get(month, set()))
            >= len(unique_exists.get(month, set()))
        )
        notes = [
            f"unique commands: file-missing {total_missing} vs file-exists "
            f"{total_exists} (paper: missing sessions show higher "
            "variability — more obfuscation)",
            f"file-missing uniqueness ≥ file-exists in "
            f"{months_where_missing_higher}/{len(months)} months",
        ]
        notes.extend(dataset.coverage_notes())
        return self.result(
            ["month", "unique cmds (file exists)", "unique cmds (file missing)"],
            rows,
            notes,
        )
