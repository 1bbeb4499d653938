"""Cross-module invariants over the full simulated dataset."""

from __future__ import annotations

from collections import Counter


from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.regexrules import UNKNOWN_CATEGORY
from repro.analysis.statechange import StateClass, state_class
from repro.honeypot.session import FileOp


class TestHashConsistency:
    def test_every_executed_hash_was_loaded_in_session(self, dataset):
        """An EXECUTE event's hash must match a file created/modified
        earlier in the same session (sessions are stateless)."""
        for session in dataset.database.command_sessions():
            loaded = set()
            for event in session.file_events:
                if event.op in (FileOp.CREATE, FileOp.MODIFY) and event.sha256:
                    loaded.add(event.sha256)
                elif event.op == FileOp.EXECUTE:
                    assert (
                        event.sha256 in loaded
                        or event.path in (
                            "/bin/busybox",
                        )
                    ), f"executed unseen hash in {session.session_id}"

    def test_transfer_hashes_in_catalogue(self, dataset):
        catalogue = dataset.simulation.malware.catalogue
        for session in dataset.database.command_sessions():
            for digest in session.transfer_hashes():
                assert digest in catalogue

    def test_execute_missing_has_no_hash(self, dataset):
        for session in dataset.database.command_sessions():
            for event in session.file_events:
                if event.op == FileOp.EXECUTE_MISSING:
                    assert event.sha256 is None

    def test_mdrfckr_key_hash_recorded_and_labelled(self, dataset):
        from repro.experiments.dataset import MDRFCKR_KEY_FILE_HASH

        seen = dataset.database.unique_hashes()
        assert MDRFCKR_KEY_FILE_HASH in seen
        assert dataset.abuse.label(MDRFCKR_KEY_FILE_HASH) == "CoinMiner"


class TestGroundTruthAgreement:
    def test_classifier_vs_bot_labels(self, dataset):
        """Sessions from a bot named exactly like a category must be
        classified into that category (>99%)."""
        category_names = set(
            rule.name for rule in DEFAULT_CLASSIFIER.rules
        )
        agree = total = 0
        for session in dataset.database.command_sessions():
            label = (session.bot_label or "").split("#")[0]
            if label not in category_names:
                continue
            total += 1
            if DEFAULT_CLASSIFIER.classify(session) == label:
                agree += 1
        assert total > 0
        assert agree / total > 0.99

    def test_unknown_sessions_are_expected_kinds(self, dataset):
        odd = Counter()
        for session in dataset.database.command_sessions():
            if DEFAULT_CLASSIFIER.classify(session) == UNKNOWN_CATEGORY:
                odd[session.bot_label] += 1
        assert set(odd) <= {"direct_exec", "phil_scanner"}

    def test_state_split_shares_match_paper_shape(self, dataset):
        counts = Counter(
            state_class(s) for s in dataset.database.command_sessions()
        )
        total = sum(counts.values())
        non_state_share = counts[StateClass.NON_STATE] / total
        # paper: 94M / 163M ≈ 58% non-state
        assert 0.4 < non_state_share < 0.75
        assert counts[StateClass.STATE_NO_EXEC] > counts[StateClass.STATE_EXEC]


class TestCurlProxy:
    def test_proxy_sessions_keep_no_artifacts(self, dataset):
        sessions = [
            s
            for s in dataset.database.command_sessions()
            if DEFAULT_CLASSIFIER.classify(s) == "curl_maxred"
        ]
        assert sessions
        for session in sessions:
            assert session.transfer_hashes() == []
            assert len(session.uris) >= 50


class TestVolumes:
    def test_scaled_session_count_near_paper(self, dataset):
        from repro.config import PAPER

        measured = len(dataset.database.ssh_sessions())
        expected = PAPER.ssh_sessions * dataset.config.scale
        assert 0.6 * expected < measured < 1.6 * expected

    def test_hash_universe_scales(self, dataset):
        # paper: 16,257 unique hashes at full scale; at tiny scale the
        # variant machinery must still produce a diverse universe
        assert len(dataset.database.unique_hashes()) > 50

    def test_file_sessions_subset_of_downloads(self, dataset):
        file_sessions = {s.session_id for s in dataset.file_sessions()}
        command_sessions = {
            s.session_id for s in dataset.database.command_sessions()
        }
        assert file_sessions <= command_sessions
        # mdrfckr key installs are excluded from payload loads
        from repro.analysis.mdrfckr_case import mdrfckr_sessions

        mdr = {
            s.session_id for s in mdrfckr_sessions(dataset.table.commands).sessions
        }
        assert not (file_sessions & mdr)
