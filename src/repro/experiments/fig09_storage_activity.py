"""Figure 9: malware-storage IP activity days across recall windows."""

from __future__ import annotations

from collections import Counter

from repro.analysis.storage import (
    DURATION_CLASSES,
    infrastructure_observations,
    reappearance_after,
    recall_distribution,
)
from repro.experiments.base import Experiment, register

#: The four recall intervals of Figure 9.
RECALLS: tuple[tuple[str, float], ...] = (
    ("1-week", 7),
    ("4-week", 28),
    ("1-year", 365),
    ("all", float("inf")),
)


@register
class Fig09StorageActivity(Experiment):
    """Per recall window: distribution of storage-IP activity spans."""

    experiment_id = "fig09"
    title = "Malware storage activity days over time"
    paper_reference = "Figure 9"

    def run(self, dataset):
        observations = infrastructure_observations(
            dataset.download_observations()
        )
        rows = []
        summaries: dict[str, Counter] = {}
        for recall_name, recall_days in RECALLS:
            per_month = recall_distribution(observations, recall_days)
            totals: Counter = Counter()
            for counter in per_month.values():
                totals.update(counter)
            summaries[recall_name] = totals
            grand = sum(totals.values()) or 1
            for class_name, _ in DURATION_CLASSES:
                share = totals.get(class_name, 0) / grand
                if share > 0:
                    rows.append([recall_name, class_name, f"{share:.0%}"])
        week = summaries["1-week"]
        week_total = sum(week.values()) or 1
        one_day = week.get("<1d", 0) / week_total
        full_week = sum(
            week.get(c, 0)
            for c in ("<1w", "<2w", "<4w", "<8w", "<16w", "<0.5y", "<1y", ">=1y")
        ) / week_total
        notes = [
            f"1-week recall: {one_day:.0%} of IPs active a single day "
            "(paper: ~50%)",
            f"1-week recall: {full_week:.0%} active (nearly) the full week "
            "(paper: ~30%)",
            f"IPs reappearing after ≥6 months: "
            f"{reappearance_after(observations):.0%} (paper: ~25% on average)",
        ]
        notes.extend(dataset.coverage_notes())
        return self.result(
            ["recall window", "activity class", "share of IPs"], rows, notes
        )
