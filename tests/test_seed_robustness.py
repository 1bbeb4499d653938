"""The headline shapes must hold under a different seed.

Guards against results that are artefacts of one lucky random stream:
a second dataset with an independent seed must reproduce the paper's
qualitative findings.
"""

from __future__ import annotations

import pytest

from repro.analysis.categories import SessionCategory, category_counts
from repro.analysis.classify import label_coverage
from repro.analysis.logins import top_passwords
from repro.analysis.monthly import monthly_groups, overall_shares
from repro.analysis.statechange import ExecOutcome, StateClass
from repro.analysis.validation import validate_classifier
from repro.config import DEFAULT_CONFIG
from repro.experiments.dataset import build_dataset


@pytest.fixture(scope="module")
def alt_dataset():
    return build_dataset(DEFAULT_CONFIG.replace(seed=23))


class TestSeedRobustness:
    def test_category_ordering(self, alt_dataset):
        ssh = alt_dataset.table.ssh
        counts = category_counts(ssh.sessions, ssh.login)
        assert counts[SessionCategory.SCOUTING] == max(counts.values())
        assert (
            counts[SessionCategory.COMMAND_EXECUTION]
            > counts[SessionCategory.SCANNING]
        )

    def test_echo_ok_dominates_non_state(self, alt_dataset):
        commands = alt_dataset.table.commands
        shares = overall_shares(
            monthly_groups(
                (month, label)
                for month, label, state in zip(
                    commands.month, commands.label, commands.state
                )
                if state is StateClass.NON_STATE
            )
        )
        assert shares.get("echo_ok", 0.0) > 0.7

    def test_mdrfckr_dominates_state_no_exec(self, alt_dataset):
        commands = alt_dataset.table.commands
        shares = overall_shares(
            monthly_groups(
                (month, label)
                for month, label, state in zip(
                    commands.month, commands.label, commands.state
                )
                if state is StateClass.STATE_NO_EXEC
            )
        )
        assert shares.get("mdrfckr", 0.0) > 0.7

    def test_missing_exceeds_exists(self, alt_dataset):
        outcomes = alt_dataset.table.commands.outcome
        missing = outcomes.count(ExecOutcome.FILE_MISSING)
        exists = outcomes.count(ExecOutcome.FILE_EXISTS)
        assert missing > exists

    def test_campaign_password_prominent(self, alt_dataset):
        top = dict(top_passwords(alt_dataset.table.ssh.login, 5))
        assert "3245gs5662d34" in top

    def test_classifier_agreement(self, alt_dataset):
        commands = alt_dataset.table.commands
        report = validate_classifier(commands.sessions, commands.label)
        assert report.accuracy > 0.99

    def test_coverage(self, alt_dataset):
        coverage = label_coverage(alt_dataset.table.commands.label)
        assert coverage > 0.97
