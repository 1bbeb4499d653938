"""Figure 6: the top clusters (bots) over time."""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.analysis.monthly import session_month
from repro.experiments.base import Experiment, register
from repro.experiments.dataset import NOTHING_TO_CLUSTER
from repro.util.timeutils import parse_month


@register
class Fig06ClustersOverTime(Experiment):
    """Monthly share of the top-5 clusters among file sessions."""

    experiment_id = "fig06"
    title = "Top clusters over time"
    paper_reference = "Figure 6"

    def run(self, dataset):
        headers = ["month", "file sessions", "top clusters"]
        clustering = dataset.clustering()
        if not clustering.sessions:
            return self.result(
                headers, [], [NOTHING_TO_CLUSTER, *dataset.coverage_notes()]
            )
        top5 = sorted(clustering.profiles, key=lambda p: -p.size)[:5]
        top_ids = {p.raw_index: p for p in top5}
        per_month: dict[str, Counter] = defaultdict(Counter)
        session_cluster = {}
        for profile in clustering.profiles:
            for session in profile.sessions:
                session_cluster[session.session_id] = profile
        for session in clustering.sessions:
            profile = session_cluster[session.session_id]
            name = (
                profile.label if profile.raw_index in top_ids else "Others"
            )
            per_month[session_month(session)][name] += 1
        rows = []
        for month in sorted(per_month):
            counter = per_month[month]
            total = sum(counter.values())
            top_two = ", ".join(
                f"{name}:{count / total:.0%}"
                for name, count in counter.most_common(2)
            )
            rows.append([month, total, top_two])
        # family continuity notes
        family_months: dict[str, list[str]] = defaultdict(list)
        for profile in clustering.profiles:
            for family in profile.families[:1]:
                for session in profile.sessions:
                    family_months[family].append(session_month(session))
        notes = [
            "top-5 clusters: "
            + "; ".join(f"{p.label} ({p.size} sessions)" for p in top5),
        ]
        xor_months = sorted(set(family_months.get("XorDDoS", [])))
        if xor_months:
            notes.append(
                f"XorDDoS-labelled activity last seen {xor_months[-1]} "
                "(paper: sudden stop in early 2024)"
            )
        mirai_months = sorted(set(family_months.get("Mirai", [])))
        if mirai_months:
            recent = [
                m for m in mirai_months if parse_month(m).year == 2024
            ]
            notes.append(
                f"Mirai-labelled activity in 2024 months: {recent} "
                "(paper: spring-2024 resurgence)"
            )
        notes.extend(dataset.coverage_notes())
        return self.result(headers, rows, notes)
