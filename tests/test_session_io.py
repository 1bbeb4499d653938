"""JSONL session-log persistence."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.honeynet.database import SessionDatabase
from repro.honeynet.io import (
    SCHEMA_VERSION,
    SessionLogError,
    read_jsonl,
    recover_jsonl,
    session_from_dict,
    session_to_dict,
    write_jsonl,
)


class TestRoundTrip:
    def test_dataset_round_trips(self, dataset, tmp_path):
        sessions = dataset.database.ssh_sessions()[:200]
        path = tmp_path / "sessions.jsonl"
        count = write_jsonl(sessions, path)
        assert count == 200
        loaded = read_jsonl(path)
        assert len(loaded) == 200
        for original, restored in zip(sessions, loaded):
            assert session_to_dict(original) == session_to_dict(restored)

    def test_analysis_works_on_reloaded_logs(self, dataset, tmp_path):
        sessions = dataset.database.command_sessions()[:150]
        path = tmp_path / "cmd.jsonl"
        write_jsonl(sessions, path)
        reloaded = SessionDatabase(read_jsonl(path))
        original_counts = Counter(map(DEFAULT_CLASSIFIER.classify, sessions))
        reloaded_counts = Counter(
            map(DEFAULT_CLASSIFIER.classify, reloaded.command_sessions())
        )
        assert original_counts == reloaded_counts

    def test_hashes_survive(self, dataset, tmp_path):
        sessions = [
            s for s in dataset.database.command_sessions() if s.transfer_hashes()
        ][:20]
        path = tmp_path / "dl.jsonl"
        write_jsonl(sessions, path)
        loaded = read_jsonl(path)
        for original, restored in zip(sessions, loaded):
            assert restored.transfer_hashes() == original.transfer_hashes()


class TestErrorHandling:
    def test_version_rejected(self):
        with pytest.raises(SessionLogError):
            session_from_dict({"v": 999})

    def test_missing_fields_rejected(self):
        with pytest.raises(SessionLogError):
            session_from_dict({"v": SCHEMA_VERSION, "session_id": "x"})

    def test_invalid_json_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SessionLogError):
            read_jsonl(path)

    def test_blank_lines_skipped(self, dataset, tmp_path):
        sessions = dataset.database.ssh_sessions()[:2]
        path = tmp_path / "gaps.jsonl"
        lines = [json.dumps(session_to_dict(s)) for s in sessions]
        path.write_text(lines[0] + "\n\n" + lines[1] + "\n")
        assert len(read_jsonl(path)) == 2

    def test_invalid_enum_rejected(self, dataset, tmp_path):
        payload = session_to_dict(dataset.database.ssh_sessions()[0])
        payload["protocol"] = "carrier-pigeon"
        with pytest.raises(SessionLogError):
            session_from_dict(payload)

    def test_errors_carry_structured_context(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"v": 1}\n{not json}\n')
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        error = caught.value
        assert error.path == str(path)
        assert error.line == 1  # the malformed record comes first
        assert error.reason == "malformed-record"
        assert str(path) in str(error) and "line 1" in str(error)
        assert error.__cause__ is not None  # exception chaining preserved

    def test_invalid_json_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        assert caught.value.reason == "invalid-json"
        assert caught.value.line == 1

    def test_strict_read_rejects_a_json_value_that_is_not_an_object(
        self, tmp_path
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        assert caught.value.reason == "invalid-json"
        assert caught.value.line == 1

    def test_strict_read_rejects_a_non_utf8_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"v": \xff}\n')
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        assert caught.value.reason == "invalid-json"
        assert caught.value.line == 1
        assert isinstance(caught.value.__cause__, SessionLogError)

    def test_version_error_reason(self):
        with pytest.raises(SessionLogError) as caught:
            session_from_dict({"v": 999})
        assert caught.value.reason == "unsupported-version"


class TestSelfVerification:
    def test_write_produces_sidecar_manifest(self, dataset, tmp_path):
        from repro.integrity.manifest import read_manifest

        sessions = dataset.database.ssh_sessions()[:10]
        path = tmp_path / "sessions.jsonl"
        write_jsonl(sessions, path)
        manifest = read_manifest(path)
        assert manifest is not None and manifest.lines == 10
        assert not path.with_name(path.name + ".tmp").exists()  # atomic

    def test_manifest_can_be_suppressed(self, dataset, tmp_path):
        from repro.integrity.manifest import manifest_path

        path = tmp_path / "bare.jsonl"
        write_jsonl(dataset.database.ssh_sessions()[:5], path)
        manifest_path(path).unlink()
        assert len(read_jsonl(path)) == 5

    def test_strict_read_rejects_tampered_line(self, dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(dataset.database.ssh_sessions()[:5], path)
        lines = path.read_text().splitlines()
        payload = json.loads(lines[2])
        payload["client_ip"] = "6.6.6.6"  # flip content, keep old checksum
        lines[2] = json.dumps(payload)
        path.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        assert caught.value.reason == "checksum-mismatch"
        assert caught.value.line == 3

    def test_strict_read_rejects_truncated_file(self, dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(dataset.database.ssh_sessions()[:5], path)
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in lines[:-1]))
        with pytest.raises(SessionLogError) as caught:
            read_jsonl(path)
        assert caught.value.reason == "manifest-mismatch"

    def test_lenient_read_recovers_around_damage(self, dataset, tmp_path):
        path = tmp_path / "t.jsonl"
        sessions = dataset.database.ssh_sessions()[:6]
        write_jsonl(sessions, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]  # truncate one line mid-record
        path.write_text("".join(line + "\n" for line in lines))
        quarantine = tmp_path / "quarantine"
        loaded = recover_jsonl(path, quarantine=quarantine).records
        assert [s.session_id for s in loaded] == [
            s.session_id for i, s in enumerate(sessions) if i != 1
        ]
        assert (quarantine / "quarantine.jsonl").exists()
