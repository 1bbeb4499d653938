"""Figure 3: state-modifying sessions, split by execution attempts."""

from __future__ import annotations

from repro.analysis.monthly import monthly_groups, overall_shares, top_n_shares
from repro.analysis.statechange import StateClass
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.timeutils import parse_month


class _StateModBase(Experiment):
    wanted_class: StateClass

    def table(self, dataset):
        commands = dataset.table.commands
        per_month = monthly_groups(
            (month, label)
            for month, label, state in zip(
                commands.month, commands.label, commands.state
            )
            if state is self.wanted_class
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
        return per_month, rows


@register
class Fig03aFileModifiers(_StateModBase):
    """Figure 3(a): add/modify/delete files without executing them."""

    experiment_id = "fig03a"
    title = "State-modifying sessions without file execution"
    paper_reference = "Figure 3(a)"
    wanted_class = StateClass.STATE_NO_EXEC

    def run(self, dataset):
        per_month, rows = self.table(dataset)
        total = sum(sum(counter.values()) for counter in per_month.values())
        shares = overall_shares(per_month)
        notes = [
            f"mdrfckr share: {shares.get('mdrfckr', 0.0):.1%} (paper: >90%)",
            f"curl_maxred sessions: "
            f"{sum(c.get('curl_maxred', 0) for c in per_month.values())} "
            f"(paper: ~{PAPER.curl_maxred_sessions:,} at full scale, "
            "Jan-Apr 2024 only)",
            f"total: {total} (paper {PAPER.state_no_exec_sessions:,} "
            "at full scale)",
        ]
        return self.result(
            ["month", "sessions", "top1", "top2", "top3"], rows, notes
        )


@register
class Fig03bFileExec(_StateModBase):
    """Figure 3(b): sessions that attempt to execute files."""

    experiment_id = "fig03b"
    title = "Sessions attempting file execution"
    paper_reference = "Figure 3(b)"
    wanted_class = StateClass.STATE_EXEC

    def run(self, dataset):
        per_month, rows = self.table(dataset)
        shares = overall_shares(per_month)
        top3 = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        bbox_unlabelled_months = sorted(
            m for m, c in per_month.items() if c.get("bbox_unlabelled", 0) > 0
        )
        last_bbox = bbox_unlabelled_months[-1] if bbox_unlabelled_months else "-"
        late = [m for m in per_month if parse_month(m) >= parse_month("2023-01")]
        early = [m for m in per_month if parse_month(m) < parse_month("2023-01")]

        def mean_volume(months):
            if not months:
                return 0.0
            return sum(sum(per_month[m].values()) for m in months) / len(months)

        notes = [
            "top-3 exec categories cover "
            f"{sum(s for _, s in top3):.1%} (paper: ~50%)",
            f"bbox_unlabelled last active month: {last_bbox} "
            "(paper: abrupt end mid-2022)",
            f"volume decline: {mean_volume(early):.0f} → {mean_volume(late):.0f} "
            "sessions/month (paper: marked downward trend from late 2022)",
        ]
        return self.result(
            ["month", "sessions", "top1", "top2", "top3"], rows, notes
        )
