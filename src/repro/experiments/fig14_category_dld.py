"""Figure 14 (appendix B): inter-category normalized DLD."""

from __future__ import annotations

import numpy as np

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.distance import (
    distance_matrix,
    sample_sessions,
    session_tokens,
)
from repro.experiments.base import Experiment, register

#: Scout categories the paper shows as a separate (top-left) block.
SCOUT_CATEGORIES = {
    "echo_ok", "echo_ok_txt", "uname_a", "uname_svnrm", "uname_svnr",
    "uname_a_nproc", "uname_snri_nproc", "bbox_scout_cat", "ak47_scout",
    "shell_fp",
}


@register
class Fig14CategoryDld(Experiment):
    """Mean pairwise DLD between category exemplar token sequences."""

    experiment_id = "fig14"
    title = "Inter-bot-category normalized DLD"
    paper_reference = "Figure 14 (appendix B)"

    def run(self, dataset):
        sessions = sample_sessions(
            dataset.database.command_sessions(), 1500, seed=dataset.config.seed
        )
        by_category: dict[str, list] = {}
        for session in sessions:
            by_category.setdefault(
                DEFAULT_CLASSIFIER.classify(session), []
            ).append(session)
        # one mean token sequence sample per category (up to 3 exemplars)
        exemplars: dict[str, list[list[str]]] = {}
        for category, members in by_category.items():
            chosen = members[:3]
            exemplars[category] = session_tokens(chosen)
        categories = sorted(exemplars)
        # One distance_matrix call over the flattened exemplars (instead
        # of per-pair normalized_dld): same division, same floats, but
        # the pair work flows through the shared pipeline — its caches
        # and its telemetry.
        flat: list[list[str]] = []
        spans: dict[str, range] = {}
        for category in categories:
            start = len(flat)
            flat.extend(exemplars[category])
            spans[category] = range(start, len(flat))
        pairwise = distance_matrix(flat)
        rows = []
        matrix: dict[tuple[str, str], float] = {}
        for a in categories:
            for b in categories:
                if b < a:
                    continue
                values = [
                    float(pairwise[i, j])
                    for i in spans[a]
                    for j in spans[b]
                    if not (a == b and i == j)
                ]
                mean = float(np.mean(values)) if values else 0.0
                matrix[(a, b)] = mean
        scout_pairs = [
            v
            for (a, b), v in matrix.items()
            if a != b and a in SCOUT_CATEGORIES and b in SCOUT_CATEGORIES
        ]
        cross_pairs = [
            v
            for (a, b), v in matrix.items()
            if a != b
            and (a in SCOUT_CATEGORIES) != (b in SCOUT_CATEGORIES)
        ]
        for (a, b), value in sorted(matrix.items()):
            if a != b:
                rows.append([a, b, f"{value:.3f}"])
        notes = [
            f"categories compared: {len(categories)}",
            f"mean DLD within the scout block: "
            f"{float(np.mean(scout_pairs)) if scout_pairs else 0:.3f}; "
            f"scout-vs-rest: "
            f"{float(np.mean(cross_pairs)) if cross_pairs else 0:.3f} "
            "(paper: clear separation of the info-gathering block)",
        ]
        return self.result(["category A", "category B", "mean DLD"], rows, notes)
