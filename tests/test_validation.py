"""Ground-truth validation of the classifier."""

from __future__ import annotations

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.validation import validate_classifier
from repro.attackers.labels import COMMANDLESS_BOTS, EXPECTED_CATEGORY
from repro.honeypot.session import (
    CommandRecord,
    LoginAttempt,
    Protocol,
    SessionRecord,
)


def session(bot_label: str, text: str) -> SessionRecord:
    return SessionRecord(
        session_id=f"s-{bot_label}-{hash(text) & 0xFFFF}",
        honeypot_id="hp",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=1,
        start=0.0,
        end=1.0,
        logins=[LoginAttempt("root", "x", True)],
        commands=[CommandRecord(raw=text, known=True)],
        bot_label=bot_label,
    )


def labels(sessions: list[SessionRecord]) -> list[str]:
    return [DEFAULT_CLASSIFIER.classify(s) for s in sessions]


class TestValidateClassifier:
    def test_perfect_agreement(self):
        sessions = [
            session("echo_OK", r'echo -e "\x6F\x6B"'),
            session("uname_a", "uname -a"),
        ]
        report = validate_classifier(sessions, labels(sessions))
        assert report.total == 2
        assert report.accuracy == 1.0
        assert report.misclassified() == []

    def test_disagreement_recorded(self):
        sessions = [session("echo_OK", "wget http://h/f")]
        report = validate_classifier(sessions, labels(sessions))
        assert report.accuracy == 0.0
        assert report.misclassified() == [(("echo_ok", "gen_wget"), 1)]

    def test_unmapped_bots_skipped(self):
        sessions = [session("not-a-real-bot", "uname -a")]
        report = validate_classifier(sessions, labels(sessions))
        assert report.total == 0
        assert report.accuracy == 0.0

    def test_per_category_breakdown(self):
        sessions = [
            session("uname_a", "uname -a"),
            session("uname_a", "uname -a"),
            session("uname_a", "something else"),
        ]
        report = validate_classifier(sessions, labels(sessions))
        assert report.per_category["uname_a"] == (2, 3)


class TestLabelTable:
    def test_expected_categories_are_real(self):
        from repro.analysis.regexrules import CATEGORY_NAMES

        assert set(EXPECTED_CATEGORY.values()) <= set(CATEGORY_NAMES)

    def test_no_overlap_with_commandless(self):
        assert not set(EXPECTED_CATEGORY) & COMMANDLESS_BOTS


class TestDatasetValidation:
    def test_high_agreement_on_dataset(self, dataset):
        commands = dataset.table.commands
        report = validate_classifier(commands.sessions, commands.label)
        assert report.total > 1000
        assert report.accuracy > 0.99

    def test_experiment_notes(self, results):
        text = " ".join(results["ext_validation"].notes)
        assert "overall agreement" in text
        accuracy = float(text.split("overall agreement: ")[1].split("%")[0])
        assert accuracy > 99.0
