"""Applying the Table-1 rules to sessions.

A session's category is the first rule that matches its command text,
the input lines joined with ``" ; "``.  Bot traffic repeats itself, so
each classifier memoizes the label per distinct command sequence: the
key is the tuple of the session's raw input lines (strings the records
already hold), and only a miss joins them and runs the rules.  At seed
7 and the default scale the 13,429 stored sessions hold 1,417 distinct
sequences.

The memo lives on the instance because a label depends on the rule
order (``ext_ablation_ruleorder`` builds a generic-first classifier next
to the default one).  It is cleared whenever it reaches
:data:`LABEL_CACHE_LIMIT` entries.  A label is a pure function of its
key, so two threads racing on one classifier can only repeat work.
:meth:`CommandClassifier.classify_text` is not memoized.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.analysis.regexrules import RULES, UNKNOWN_CATEGORY, CategoryRule
from repro.honeypot.session import SessionRecord

#: Distinct command sequences each classifier's label memo holds before
#: it is cleared: about 5x the 6,727 that the sessions stored at seed 7
#: and scale 1e-4 hold.
LABEL_CACHE_LIMIT = 1 << 15


class CommandClassifier:
    """First-match-wins classifier over the ordered rule table."""

    def __init__(self, rules: tuple[CategoryRule, ...] = RULES) -> None:
        self.rules = rules
        self._labels: dict[tuple[str, ...], str] = {}

    def classify_text(self, text: str) -> str:
        """Category of one command string."""
        for rule in self.rules:
            if rule.matches(text):
                return rule.name
        return UNKNOWN_CATEGORY

    def classify(self, session: SessionRecord) -> str:
        """Category of one session (over its concatenated commands)."""
        # A list first: ``tuple`` over a generator grows and shrinks
        # the tuple as it goes, scattering the memo's long-lived keys
        # across the small-object allocator's pools.
        key = tuple([record.raw for record in session.commands])
        label = self._labels.get(key)
        if label is None:
            if len(self._labels) >= LABEL_CACHE_LIMIT:
                self._labels.clear()
            # The same text as ``session.command_text``.
            label = self.classify_text(" ; ".join(key))
            self._labels[key] = label
        return label

    def counts(self, sessions: list[SessionRecord]) -> Counter:
        """Category histogram over many sessions."""
        histogram: Counter = Counter()
        for session in sessions:
            histogram[self.classify(session)] += 1
        return histogram

    def group(self, sessions: list[SessionRecord]) -> dict[str, list[SessionRecord]]:
        """Sessions grouped by category."""
        groups: dict[str, list[SessionRecord]] = defaultdict(list)
        for session in sessions:
            groups[self.classify(session)].append(session)
        return dict(groups)

    def coverage(self, sessions: list[SessionRecord]) -> float:
        """Fraction of sessions matched by a non-fallback rule."""
        if not sessions:
            return 0.0
        histogram = self.counts(sessions)
        unknown = histogram.get(UNKNOWN_CATEGORY, 0)
        return 1.0 - unknown / len(sessions)


#: Module-level default classifier (rules are immutable).
DEFAULT_CLASSIFIER = CommandClassifier()
