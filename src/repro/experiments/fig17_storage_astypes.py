"""Figure 17 (appendix E): AS types of storage locations over time."""

from __future__ import annotations

from collections import Counter

from repro.analysis.storage import (
    infrastructure_observations,
    monthly_as_types,
)
from repro.experiments.base import Experiment, register

TYPE_ORDER = ("CDN", "Hosting", "ISP/NSP", "Other")


@register
class Fig17StorageAsTypes(Experiment):
    """Monthly storage-AS type shares."""

    experiment_id = "fig17"
    title = "AS types of malware storage locations over time"
    paper_reference = "Figure 17 (appendix E)"

    def run(self, dataset):
        observations = infrastructure_observations(
            dataset.download_observations()
        )
        per_month = monthly_as_types(observations, dataset.whois)
        rows = []
        for month in sorted(per_month):
            counter = per_month[month]
            total = sum(counter.values()) or 1
            rows.append(
                [month]
                + [
                    f"{counter.get(kind, 0) / total:.0%}"
                    for kind in TYPE_ORDER
                ]
                + [total]
            )
        totals: Counter = Counter()
        for counter in per_month.values():
            totals.update(counter)
        grand = sum(totals.values()) or 1
        late_2023 = [
            m for m in ("2023-10", "2023-11", "2023-12")
            if per_month.get(m, Counter()).get("Other", 0) > 0
        ]
        notes = [
            f"Hosting share overall: {totals.get('Hosting', 0) / grand:.0%} "
            "(paper: majority of malware downloads from Hosting ASes)",
            f"ISP/NSP share: {totals.get('ISP/NSP', 0) / grand:.0%}, "
            f"CDN: {totals.get('CDN', 0) / grand:.0%} "
            "(paper: sporadic appearances)",
            f"'Other' ASes appear in late-2023 months {late_2023} "
            "(paper: an end-2023 spike of unlabelled ASes that all turn "
            "out to provide hosting)",
        ]
        return self.result(["month", *TYPE_ORDER, "sessions"], rows, notes)
