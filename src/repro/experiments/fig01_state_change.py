"""Figure 1: state-changing vs non-state-changing command sessions."""

from __future__ import annotations

from repro.analysis.monthly import daily_box_stats
from repro.analysis.statechange import StateClass
from repro.config import PAPER
from repro.experiments.base import Experiment, register
from repro.util.timeutils import parse_month


@register
class Fig01StateChange(Experiment):
    """Monthly boxplot stats of daily session counts per state class."""

    experiment_id = "fig01"
    title = "Sessions with commands: changing vs not changing state"
    paper_reference = "Figure 1"

    def run(self, dataset):
        commands = dataset.table.commands
        changing = [
            day
            for day, state in zip(commands.day, commands.state)
            if state is not StateClass.NON_STATE
        ]
        stable = [
            day
            for day, state in zip(commands.day, commands.state)
            if state is StateClass.NON_STATE
        ]
        changing_stats = daily_box_stats(changing)
        stable_stats = daily_box_stats(stable)
        months = sorted(set(changing_stats) | set(stable_stats))
        rows = []
        for month in months:
            c = changing_stats.get(month)
            s = stable_stats.get(month)
            rows.append(
                [
                    month,
                    f"{c['median']:.1f}" if c else "0",
                    f"{c['total']:.0f}" if c else "0",
                    f"{s['median']:.1f}" if s else "0",
                    f"{s['total']:.0f}" if s else "0",
                ]
            )
        pre = [m for m in months if parse_month(m).year < 2023]
        post = [m for m in months if parse_month(m).year >= 2023]

        def mean_total(stats, keys):
            values = [stats[m]["total"] for m in keys if m in stats]
            return sum(values) / len(values) if values else 0.0

        shift = (
            mean_total(stable_stats, post) / mean_total(stable_stats, pre)
            if mean_total(stable_stats, pre)
            else 0.0
        )
        total_changing = sum(v["total"] for v in changing_stats.values())
        total_stable = sum(v["total"] for v in stable_stats.values())
        notes = [
            f"non-state sessions grew {shift:.2f}x from pre-2023 to 2023+ "
            "(paper: clear increase starting early 2023)",
            f"totals: non-state {total_stable:.0f} vs state {total_changing:.0f} "
            f"(paper ratio {PAPER.non_state_sessions / PAPER.state_sessions:.2f}, "
            f"measured {total_stable / max(1, total_changing):.2f})",
        ]
        notes.extend(dataset.coverage_notes())
        return self.result(
            [
                "month",
                "changing median/day",
                "changing total",
                "non-state median/day",
                "non-state total",
            ],
            rows,
            notes,
        )
