"""Ground-truth validation of the forensic pipeline.

The simulator labels every session with the bot that produced it; the
analyses never read that label.  This module measures how faithfully
the Table-1 classifier recovers the generative ground truth — the
reproduction's internal consistency check.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.attackers.labels import EXPECTED_CATEGORY
from repro.honeypot.session import SessionRecord


@dataclass
class ValidationReport:
    """Agreement between ground truth and classifier output."""

    total: int
    agreements: int
    confusion: Counter                 # (expected, predicted) → sessions
    per_category: dict[str, tuple[int, int]]  # category → (correct, total)

    @property
    def accuracy(self) -> float:
        return self.agreements / self.total if self.total else 0.0

    def misclassified(self) -> list[tuple[tuple[str, str], int]]:
        """Off-diagonal confusion cells, heaviest first."""
        return sorted(
            (
                (pair, count)
                for pair, count in self.confusion.items()
                if pair[0] != pair[1]
            ),
            key=lambda item: -item[1],
        )


def validate_classifier(
    sessions: list[SessionRecord],
    labels: list[str],
    expected: dict[str, str] | None = None,
) -> ValidationReport:
    """Compare classifier output with the per-bot expected categories.

    ``labels`` holds the classifier's label of each session, aligned
    with ``sessions`` (the session table's label column).  Sessions from
    bots without an expectation entry are skipped (they are either
    commandless or intentionally unmapped).
    """
    expected = expected if expected is not None else EXPECTED_CATEGORY
    confusion: Counter = Counter()
    per_category: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    agreements = 0
    total = 0
    for session, got in zip(sessions, labels):
        label = session.bot_label or ""
        want = expected.get(label)
        if want is None:
            continue
        confusion[(want, got)] += 1
        per_category[want][1] += 1
        total += 1
        if got == want:
            agreements += 1
            per_category[want][0] += 1
    return ValidationReport(
        total=total,
        agreements=agreements,
        confusion=confusion,
        per_category={
            category: (correct, count)
            for category, (correct, count) in per_category.items()
        },
    )
