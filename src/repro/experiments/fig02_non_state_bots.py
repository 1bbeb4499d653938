"""Figure 2: bot categories in non-state-changing sessions."""

from __future__ import annotations

from repro.analysis.monthly import monthly_groups, overall_shares, top_n_shares
from repro.analysis.statechange import StateClass
from repro.experiments.base import Experiment, register


@register
class Fig02NonStateBots(Experiment):
    """Top-3 bot categories per month among non-state sessions."""

    experiment_id = "fig02"
    title = "Non-state-changing sessions: top bots per month"
    paper_reference = "Figure 2"

    def run(self, dataset):
        commands = dataset.table.commands
        per_month = monthly_groups(
            (month, label)
            for month, label, state in zip(
                commands.month, commands.label, commands.state
            )
            if state is StateClass.NON_STATE
        )
        top3 = top_n_shares(per_month, 3)
        rows = []
        for month in sorted(top3):
            entries = top3[month]
            total = sum(per_month[month].values())
            cells = [month, total]
            for name, share in entries:
                cells.append(f"{name}:{share:.0%}")
            while len(cells) < 5:
                cells.append("-")
            rows.append(cells)
        shares = overall_shares(per_month)
        echo_share = shares.get("echo_ok", 0.0)
        top3_overall = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        top3_share = sum(share for _, share in top3_overall)
        notes = [
            f"echo_OK share of non-state sessions: {echo_share:.1%} "
            "(paper: >80%)",
            f"top-3 categories cover {top3_share:.1%} (paper: >95%)",
            "wave-like categories present: "
            + ", ".join(
                sorted(
                    name
                    for name in shares
                    if name in ("bbox_scout_cat", "uname_a", "ak47_scout")
                )
            ),
        ]
        return self.result(
            ["month", "sessions", "top1", "top2", "top3"], rows, notes
        )
