"""Figure 4: execution attempts split by file presence."""

from __future__ import annotations

from repro.analysis.monthly import monthly_groups, top_n_shares
from repro.analysis.statechange import ExecOutcome
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.timeutils import parse_month


class _ExecOutcomeBase(Experiment):
    wanted: ExecOutcome

    def monthly_table(self, dataset):
        commands = dataset.table.commands
        per_month = monthly_groups(
            (month, label)
            for month, label, outcome in zip(
                commands.month, commands.label, commands.outcome
            )
            if outcome is self.wanted
        )
        top3 = top_n_shares(per_month, 3)
        rows = []
        for month in sorted(per_month):
            total = sum(per_month[month].values())
            cells = [month, total]
            for name, share in top3[month]:
                cells.append(f"{name}:{share:.0%}")
            while len(cells) < 5:
                cells.append("-")
            rows.append(cells)
        total = sum(sum(counter.values()) for counter in per_month.values())
        return per_month, rows, total


@register
class Fig04aFileExists(_ExecOutcomeBase):
    """Figure 4(a): executed file was present (hash recorded)."""

    experiment_id = "fig04a"
    title = "Exec sessions where the file exists"
    paper_reference = "Figure 4(a)"
    wanted = ExecOutcome.FILE_EXISTS

    def run(self, dataset):
        per_month, rows, total = self.monthly_table(dataset)
        early = [m for m in per_month if parse_month(m).year <= 2022]
        late = [m for m in per_month if parse_month(m).year >= 2023]

        def mean_volume(months):
            if not months:
                return 0.0
            return sum(sum(per_month[m].values()) for m in months) / len(months)

        early_rate = mean_volume(early)
        late_rate = mean_volume(late)
        notes = [
            f"total file-exists sessions: {total} "
            f"(paper {PAPER.exec_file_exists_sessions:,} at full scale)",
            f"monthly volume collapse: {early_rate:.0f}/mo (2022) → "
            f"{late_rate:.0f}/mo (2023+); paper: >100k/mo → ~5k/mo "
            f"(a {100_000 / 5_000:.0f}x drop; measured "
            f"{early_rate / late_rate if late_rate else float('inf'):.0f}x)",
        ]
        return self.result(
            ["month", "sessions", "top1", "top2", "top3"], rows, notes
        )


@register
class Fig04bFileMissing(_ExecOutcomeBase):
    """Figure 4(b): executed file was never captured."""

    experiment_id = "fig04b"
    title = "Exec sessions where the file is missing"
    paper_reference = "Figure 4(b)"
    wanted = ExecOutcome.FILE_MISSING

    def run(self, dataset):
        per_month, rows, total = self.monthly_table(dataset)
        exists_total = dataset.table.commands.outcome.count(
            ExecOutcome.FILE_EXISTS
        )
        ratio = total / exists_total if exists_total else float("inf")
        notes = [
            f"total file-missing sessions: {total} "
            f"(paper {PAPER.exec_file_missing_sessions:,} at full scale)",
            f"missing:exists ratio {ratio:.1f} (paper "
            f"{PAPER.exec_file_missing_sessions / PAPER.exec_file_exists_sessions:.1f})",
            "missing files imply transfer channels Cowrie cannot capture "
            "(scp/ftp/rsync), per the paper's interpretation",
        ]
        return self.result(
            ["month", "sessions", "top1", "top2", "top3"], rows, notes
        )
