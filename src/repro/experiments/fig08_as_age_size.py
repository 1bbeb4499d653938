"""Figure 8: AS age and size of malware storage locations."""

from __future__ import annotations

from collections import Counter

from repro.analysis.storage import (
    AGE_BUCKETS,
    SIZE_BUCKETS,
    infrastructure_observations,
    monthly_age_buckets,
    monthly_size_buckets,
    summarize_storage_ases,
)
from repro.config import PAPER
from repro.experiments.base import Experiment, register


@register
class Fig08aAsAge(Experiment):
    """Figure 8(a): storage-AS age at download time."""

    experiment_id = "fig08a"
    title = "AS age of malware storage locations"
    paper_reference = "Figure 8(a)"

    def run(self, dataset):
        observations = infrastructure_observations(
            dataset.download_observations()
        )
        per_month = monthly_age_buckets(observations, dataset.whois)
        rows = []
        for month in sorted(per_month):
            counter = per_month[month]
            total = sum(counter.values()) or 1
            rows.append(
                [month]
                + [f"{counter.get(bucket, 0) / total:.0%}" for bucket in AGE_BUCKETS]
                + [total]
            )
        totals: Counter = Counter()
        for counter in per_month.values():
            totals.update(counter)
        grand = sum(totals.values()) or 1
        young = totals.get(AGE_BUCKETS[0], 0) / grand
        under5 = young + totals.get(AGE_BUCKETS[1], 0) / grand
        notes = [
            f"AS younger than 1 year: {young:.0%} of download sessions "
            "(paper: >35%)",
            f"AS younger than 5 years: {under5:.0%} (paper: >70%)",
        ]
        return self.result(
            ["month", *AGE_BUCKETS, "sessions"], rows, notes
        )


@register
class Fig08bAsSize(Experiment):
    """Figure 8(b): storage-AS size in deaggregated /24s."""

    experiment_id = "fig08b"
    title = "AS size of malware storage locations"
    paper_reference = "Figure 8(b)"

    def run(self, dataset):
        observations = infrastructure_observations(
            dataset.download_observations()
        )
        per_month = monthly_size_buckets(observations, dataset.whois)
        rows = []
        for month in sorted(per_month):
            counter = per_month[month]
            total = sum(counter.values()) or 1
            rows.append(
                [month]
                + [
                    f"{counter.get(bucket, 0) / total:.0%}"
                    for bucket in SIZE_BUCKETS
                ]
                + [total]
            )
        summary = summarize_storage_ases(
            observations, dataset.whois, dataset.config.end
        )
        one = summary.size_session_shares.get(SIZE_BUCKETS[0], 0.0)
        small = one + summary.size_session_shares.get(SIZE_BUCKETS[1], 0.0)
        notes = [
            f"single-/24 ASes: {one:.0%} of sessions (paper: ~20% of ASes)",
            f"ASes under fifty /24s: {small:.0%} (paper: ~50%)",
            f"storage-AS census: {summary.total_ases} ASes "
            f"({summary.hosting_ases} hosting, {summary.isp_ases} ISP, "
            f"{summary.down_ases} down) — paper: {PAPER.storage_ases} "
            f"({PAPER.storage_hosting_ases}/{PAPER.storage_isp_ases}/"
            f"{PAPER.storage_down_ases}) at full scale",
        ]
        return self.result(
            ["month", *SIZE_BUCKETS, "sessions"], rows, notes
        )
