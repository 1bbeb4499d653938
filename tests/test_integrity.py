"""Data-integrity layer: checksums, manifests, quarantine, verify.

The load-bearing guarantees:

* a dataset written with corruption faults enabled recovers to exactly
  the clean records minus quarantined losses, and the extended
  conservation law balances over the recovery boundary;
* a corrupted checkpoint generation is detected and resume falls back
  to the newest valid generation (or a fresh start) with an identical
  final digest;
* ``repro verify`` passes on clean or fully-explained trees and fails
  on trees with unexplained damage.
"""

from __future__ import annotations

import json
import random
from datetime import date

import pytest

from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig
from repro.faults.checkpoint import (
    checkpoint_generations,
    load_checkpoint,
    load_latest_checkpoint,
    save_checkpoint,
)
from repro.faults.corruption import (
    CheckpointCorruptor,
    LogCorruptor,
    build_checkpoint_corruptor,
    build_log_corruptor,
    corrupt_file,
)
from repro.faults.coverage import integrity_note
from repro.faults.plan import IntegrityFaults
from repro.honeynet.io import (
    collector_accounting_for_recovery,
    read_jsonl,
    recover_jsonl,
    session_to_dict,
    write_jsonl,
)
from repro.integrity.checksums import (
    payload_checksum,
    seal,
    section_checksum,
    verify_seal,
)
from repro.integrity.manifest import (
    ManifestError,
    build_manifest,
    file_manifest,
    manifest_path,
    read_manifest,
    write_manifest,
)
from repro.integrity.quarantine import QuarantineStore
from repro.integrity.verify import audit_tree
from repro.util.rng import RngTree
from tests.conftest import SHORT_WINDOW, make_record


def records(count: int) -> list:
    return [
        make_record(1_600_000_000.0 + 10 * i, session_id=f"s-{i:04d}")
        for i in range(count)
    ]


#: Aggressive-but-recoverable line corruption for the differential tests.
NASTY = IntegrityFaults(
    line_mangle_probability=0.15,
    line_duplicate_probability=0.15,
    line_reorder_probability=0.15,
)


class TestChecksums:
    def test_seal_round_trips(self):
        payload = seal({"a": 1, "b": [2, 3]})
        assert verify_seal(payload)

    def test_tamper_detected(self):
        payload = seal({"a": 1})
        payload["a"] = 2
        assert not verify_seal(payload)

    def test_seal_is_idempotent(self):
        once = seal({"x": "y"})
        digest = once["sha"]
        assert seal(dict(once))["sha"] == digest

    def test_checksum_covers_envelope_keys(self):
        # The seal covers *every* other key, "seq" included: a swapped
        # sequence number must fail verification.
        payload = seal({"a": 1, "seq": 4})
        payload["seq"] = 5
        assert not verify_seal(payload)

    def test_unsealed_payload_never_verifies(self):
        assert not verify_seal({"a": 1})

    def test_section_checksum_is_order_insensitive(self):
        assert section_checksum({"a": 1, "b": 2}) == section_checksum(
            {"b": 2, "a": 1}
        )
        assert section_checksum([1, 2]) != section_checksum([2, 1])

    def test_payload_checksum_excludes_sha(self):
        clean = {"k": "v"}
        assert payload_checksum(dict(clean)) == payload_checksum(seal(dict(clean)))


class TestManifest:
    def test_write_read_round_trip(self, tmp_path):
        data = tmp_path / "x.jsonl"
        lines = ['{"a":1}', '{"b":2}']
        data.write_text("".join(line + "\n" for line in lines))
        manifest = build_manifest(lines)
        write_manifest(data, manifest)
        assert read_manifest(data) == manifest
        assert file_manifest(data) == manifest

    def test_missing_manifest_reads_none(self, tmp_path):
        assert read_manifest(tmp_path / "x.jsonl") is None

    def test_unparseable_manifest_raises(self, tmp_path):
        data = tmp_path / "x.jsonl"
        data.write_text("{}\n")
        manifest_path(data).write_text("not json")
        with pytest.raises(ManifestError):
            read_manifest(data)

    def test_file_manifest_detects_appended_line(self, tmp_path):
        data = tmp_path / "x.jsonl"
        lines = ['{"a":1}']
        data.write_text('{"a":1}\n')
        manifest = build_manifest(lines)
        with open(data, "a") as handle:
            handle.write('{"b":2}\n')
        actual = file_manifest(data)
        assert (actual.lines, actual.sha256) != (manifest.lines, manifest.sha256)


class TestQuarantine:
    def test_add_and_reload(self, tmp_path):
        store = QuarantineStore(tmp_path / "quarantine")
        store.add(path="data.jsonl", line=3, reason="invalid-json", raw="{oops")
        store.add(
            path="data.jsonl", line=None, seq=7, reason="missing-line", raw=""
        )
        reloaded = QuarantineStore(tmp_path / "quarantine")
        assert len(reloaded) == 2
        assert reloaded.counts_by_reason() == {
            "invalid-json": 1,
            "missing-line": 1,
        }

    def test_covers_by_line_and_seq(self, tmp_path):
        store = QuarantineStore(tmp_path / "q")
        store.add(path="/tmp/data.jsonl", line=3, reason="invalid-json", raw="x")
        store.add(
            path="/tmp/data.jsonl", line=None, seq=7, reason="missing-line",
            raw="",
        )
        assert store.covers("data.jsonl", line=3)
        assert store.covers("data.jsonl", seq=7)
        assert not store.covers("data.jsonl", line=4)
        assert not store.covers("other.jsonl", line=3)

    def test_discover(self, tmp_path):
        assert QuarantineStore.discover(tmp_path) is None
        store = QuarantineStore(tmp_path / "quarantine")
        store.add(path="d.jsonl", line=1, reason="invalid-json", raw="x")
        assert QuarantineStore.discover(tmp_path) is not None

    def test_zero_entry_store_round_trips(self, tmp_path):
        store = QuarantineStore(tmp_path / "quarantine")
        assert len(store) == 0
        assert store.entries() == []
        assert store.counts_by_reason() == {}
        assert not store.covers("data.jsonl", line=1)
        # Reopening an untouched store is identical — no index file is
        # created until the first add, so discover() still finds nothing.
        reloaded = QuarantineStore(tmp_path / "quarantine")
        assert len(reloaded) == 0 and reloaded.entries() == []
        assert QuarantineStore.discover(tmp_path) is None

    def test_raw_is_truncated_but_checksummed(self, tmp_path):
        store = QuarantineStore(tmp_path / "q")
        long = "z" * 5000
        entry = store.add(path="d.jsonl", line=1, reason="invalid-json", raw=long)
        assert len(entry.raw) < len(long)
        from repro.util.hashing import sha256_hex

        assert entry.raw_sha256 == sha256_hex(long)


class TestCorruptors:
    def test_inert_faults_build_nothing(self):
        tree = RngTree(1)
        assert build_log_corruptor(IntegrityFaults(), tree) is None
        assert build_log_corruptor(None, tree) is None
        assert build_checkpoint_corruptor(IntegrityFaults(), tree) is None

    def test_log_corruptor_is_deterministic(self):
        lines = [json.dumps({"i": i}) for i in range(200)]
        first = LogCorruptor(NASTY, RngTree(5).child("log")).corrupt_lines(
            list(lines)
        )
        second = LogCorruptor(NASTY, RngTree(5).child("log")).corrupt_lines(
            list(lines)
        )
        assert first == second
        assert first != lines  # at these rates 200 lines never escape clean

    def test_corrupt_file_changes_bytes(self, tmp_path):
        path = tmp_path / "f.bin"
        original = bytes(range(256))
        path.write_bytes(original)
        corrupt_file(path, random.Random(3))
        assert path.read_bytes() != original

    def test_checkpoint_corruptor_keyed_by_save_event(self, tmp_path):
        corruptor = CheckpointCorruptor(probability=1.0, tree=RngTree(2))
        path = tmp_path / "c.ckpt"
        path.write_text("x" * 100)
        assert corruptor.maybe_corrupt(path, key=738000)
        never = CheckpointCorruptor(probability=0.0, tree=RngTree(2))
        path.write_text("x" * 100)
        assert not never.maybe_corrupt(path, key=738000)
        assert path.read_text() == "x" * 100


class TestRecovery:
    """write → corrupt → recover is lossless up to quarantined lines."""

    def test_clean_round_trip_reports_pristine(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        originals = records(20)
        assert write_jsonl(originals, path) == 20
        recovered = recover_jsonl(path)
        report = recovered.report
        assert [s.session_id for s in recovered.records] == [
            s.session_id for s in originals
        ]
        assert report.lossless and report.lost == 0
        assert report.duplicates == report.reordered == 0
        assert report.manifest_match is True
        assert report.conservation_balanced()

    def test_corrupted_write_recovers_clean_subset(self, tmp_path):
        path = tmp_path / "dirty.jsonl"
        originals = records(120)
        corruptor = LogCorruptor(NASTY, RngTree(7).child("log"))
        write_jsonl(originals, path, corruptor=corruptor)
        store = QuarantineStore(tmp_path / "quarantine")
        recovered = recover_jsonl(path, quarantine=store)
        report = recovered.report

        # Every recovered record is byte-identical to the original at
        # its sequence position — corruption can lose, never skew.
        by_id = {s.session_id: s for s in originals}
        for record in recovered.records:
            assert session_to_dict(record) == session_to_dict(
                by_id[record.session_id]
            )
        assert report.recovered + report.missing == len(originals)
        assert report.lost > 0  # NASTY at 120 lines always mangles some
        assert report.conservation_balanced()
        # Quarantine provenance matches the report exactly.
        assert len(store) == report.lost
        reasons = store.counts_by_reason()
        assert sum(reasons.values()) == report.lost
        assert reasons.get("missing-line", 0) == report.missing

    def test_duplicates_and_reorders_are_lossless(self, tmp_path):
        path = tmp_path / "shuffled.jsonl"
        originals = records(60)
        faults = IntegrityFaults(
            line_duplicate_probability=0.3, line_reorder_probability=0.3
        )
        write_jsonl(
            originals, path, corruptor=LogCorruptor(faults, RngTree(9).child("x"))
        )
        recovered = recover_jsonl(path)
        report = recovered.report
        assert report.lossless
        assert report.duplicates > 0 and report.reordered > 0
        assert [s.session_id for s in recovered.records] == [
            s.session_id for s in originals
        ]

    def test_recovery_accounting_balances(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            records(100),
            path,
            corruptor=LogCorruptor(NASTY, RngTree(11).child("y")),
        )
        report = recover_jsonl(path).report
        counters = collector_accounting_for_recovery(report)
        assert counters["generated"] == (
            counters["deduplicated"] + counters["quarantined"] + report.recovered
        )
        from repro.honeynet.collector import Collector

        collector = Collector()
        collector.restore([], [], counters)
        collector.sessions.extend(records(report.recovered))
        assert collector.accounting_balanced()

    def test_read_jsonl_lenient_quarantines_next_to_file(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_jsonl(
            records(80),
            path,
            corruptor=LogCorruptor(NASTY, RngTree(13).child("z")),
        )
        loaded = read_jsonl(path, mode="lenient")
        assert 0 < len(loaded) <= 80
        assert (tmp_path / "quarantine" / "quarantine.jsonl").exists()

    def test_read_jsonl_lenient_tolerates_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_jsonl(path, mode="lenient") == []
        recovered = recover_jsonl(path)
        assert recovered.records == [] and recovered.report.lost == 0

    def test_recover_without_manifest_still_reads_everything(self, tmp_path):
        from repro.integrity.manifest import manifest_path

        path = tmp_path / "d.jsonl"
        write_jsonl(records(12), path)
        manifest_path(path).unlink()
        recovered = recover_jsonl(path)
        assert len(recovered.records) == 12
        # Without the sidecar there is no expected line count, so the
        # report cannot vouch for completeness — but nothing is lost.
        assert recovered.report.manifest_lines is None
        assert read_jsonl(path, mode="lenient") == recovered.records

    def test_legacy_lines_without_seq_recover_in_file_order(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        lines = [json.dumps(session_to_dict(r)) for r in records(5)]
        lines.insert(2, lines[2])  # a duplicate, identified by session id
        path.write_text("".join(line + "\n" for line in lines))
        recovered = recover_jsonl(path)
        assert [s.session_id for s in recovered.records] == [
            f"s-{i:04d}" for i in range(5)
        ]
        assert recovered.report.duplicates == 1

    def test_integrity_note(self):
        assert integrity_note(0, 100) is None
        note = integrity_note(5, 100)
        assert "5 of 100" in note and "5.00%" in note


class TestCheckpointGenerations:
    def config(self):
        return SimulationConfig(seed=33, scale=1e-4, **SHORT_WINDOW)

    def saved(self, tmp_path, times: int):
        config = self.config()
        result = run_simulation(config)
        path = tmp_path / "run.ckpt"
        for offset in range(times):
            save_checkpoint(
                path,
                config,
                date(2023, 10, 1 + offset),
                result.honeynet,
                result.collector,
            )
        return path, config

    def test_rotation_keeps_last_k(self, tmp_path):
        path, config = self.saved(tmp_path, times=5)
        generations = checkpoint_generations(path)
        assert [p.name for p in generations] == [
            "run.ckpt", "run.ckpt.1", "run.ckpt.2",
        ]
        assert all(p.exists() for p in generations)
        # Newest first: the head file carries the latest cursor.
        assert load_checkpoint(path, config).next_day == date(2023, 10, 5)
        assert load_checkpoint(generations[2], config).next_day == date(
            2023, 10, 3
        )

    def test_fallback_to_older_generation(self, tmp_path):
        path, config = self.saved(tmp_path, times=3)
        path.write_text("garbage")
        checkpoint, rejected = load_latest_checkpoint(path, config)
        assert checkpoint is not None
        assert checkpoint.next_day == date(2023, 10, 2)
        assert len(rejected) == 1 and "unreadable" in rejected[0]

    def test_bitflip_fails_section_checksum(self, tmp_path):
        path, config = self.saved(tmp_path, times=2)
        document = json.loads(path.read_text())
        document["counters"]["generated"] += 1  # parses fine, lies about content
        path.write_text(json.dumps(document))
        checkpoint, rejected = load_latest_checkpoint(path, config)
        assert checkpoint is not None  # fell back to .1
        assert any("checksum" in message for message in rejected)

    def test_all_generations_corrupt_starts_fresh(self, tmp_path):
        path, config = self.saved(tmp_path, times=3)
        for generation in checkpoint_generations(path):
            generation.write_text("garbage")
        checkpoint, rejected = load_latest_checkpoint(path, config)
        assert checkpoint is None
        assert len(rejected) == 3

    def test_resume_survives_corrupted_newest_generation(self, tmp_path):
        config = self.config()
        checkpoint = tmp_path / "run.ckpt"
        uninterrupted = run_simulation(config)
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=date(2023, 10, 2),
        )
        corrupt_file(checkpoint, random.Random(1))
        resumed = run_simulation(config, checkpoint_path=checkpoint, resume=True)
        assert resumed.database.digest() == uninterrupted.database.digest()

    def test_resume_with_every_generation_corrupt_starts_fresh(self, tmp_path):
        config = self.config()
        checkpoint = tmp_path / "run.ckpt"
        uninterrupted = run_simulation(config)
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=date(2023, 10, 2),
        )
        for generation in checkpoint_generations(checkpoint):
            if generation.exists():
                generation.write_text("garbage")
        resumed = run_simulation(config, checkpoint_path=checkpoint, resume=True)
        assert resumed.database.digest() == uninterrupted.database.digest()


class TestVerify:
    def make_tree(self, tmp_path, corrupt: bool = False, recover: bool = False):
        path = tmp_path / "data.jsonl"
        corruptor = (
            LogCorruptor(NASTY, RngTree(17).child("v")) if corrupt else None
        )
        write_jsonl(records(80), path, corruptor=corruptor)
        if recover:
            read_jsonl(path, mode="lenient")
        return path

    def test_clean_tree_passes(self, tmp_path):
        self.make_tree(tmp_path)
        audit = audit_tree(tmp_path)
        assert audit.ok
        assert audit.records_verified == 80 and audit.records_lost == 0
        assert "PASS" in audit.render()

    def test_corrupt_unrecovered_tree_fails(self, tmp_path):
        self.make_tree(tmp_path, corrupt=True)
        audit = audit_tree(tmp_path)
        assert not audit.ok
        assert audit.records_lost > 0
        assert "FAIL" in audit.render()

    def test_recovered_tree_passes_with_quarantine(self, tmp_path):
        self.make_tree(tmp_path, corrupt=True, recover=True)
        audit = audit_tree(tmp_path)
        assert audit.ok
        assert audit.records_lost > 0
        assert audit.quarantine_entries == audit.records_lost
        statuses = {f.path: f.status for f in audit.findings}
        assert statuses["data.jsonl"] == "quarantined"

    def test_mangling_a_clean_file_fails_the_manifest(self, tmp_path):
        path = self.make_tree(tmp_path)
        with open(path, "a") as handle:
            handle.write(
                json.dumps(seal({**session_to_dict(make_record(1.0)), "seq": 80}))
                + "\n"
            )
        audit = audit_tree(tmp_path)
        assert not audit.ok  # manifest promised 80 lines, disk has 81

    def test_checkpoint_generations_audited_as_group(self, tmp_path):
        config = SimulationConfig(seed=33, scale=1e-4, **SHORT_WINDOW)
        result = run_simulation(config)
        path = tmp_path / "run.ckpt"
        for offset in range(3):
            save_checkpoint(
                path, config, date(2023, 10, 1 + offset),
                result.honeynet, result.collector,
            )
        assert audit_tree(tmp_path).ok
        corrupt_file(path, random.Random(4))
        audit = audit_tree(tmp_path)
        assert audit.ok  # newest is damaged, but .1 covers the resume
        statuses = {f.path: f.status for f in audit.findings}
        assert statuses["run.ckpt"] == "recovered"
        assert statuses["run.ckpt.1"] == "ok"
        for generation in checkpoint_generations(path):
            generation.write_text("garbage")
        assert not audit_tree(tmp_path).ok

    def test_leftover_tmp_is_flagged_not_fatal(self, tmp_path):
        self.make_tree(tmp_path)
        (tmp_path / "data.jsonl.tmp").write_text("half a write")
        audit = audit_tree(tmp_path)
        assert audit.ok
        assert any(f.kind == "temp" for f in audit.findings)

    def test_orphan_manifest_fails(self, tmp_path):
        path = self.make_tree(tmp_path)
        path.unlink()
        assert not audit_tree(tmp_path).ok

    def test_single_file_audit(self, tmp_path):
        path = self.make_tree(tmp_path)
        audit = audit_tree(path)
        assert audit.ok and len(audit.findings) == 1

    def test_to_json_round_trips(self, tmp_path):
        self.make_tree(tmp_path)
        payload = json.loads(audit_tree(tmp_path).to_json())
        assert payload["ok"] is True
        assert payload["findings"][0]["kind"] == "dataset"


class TestVerifyCli:
    def test_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "data.jsonl"
        write_jsonl(records(10), path)
        assert main(["verify", str(tmp_path)]) == 0
        path.write_text(path.read_text() + "{broken\n")
        assert main(["verify", str(tmp_path)]) == 1
        assert main(["verify", str(tmp_path / "absent")]) == 2
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" in out

    def test_json_export(self, tmp_path, capsys):
        from repro.cli import main

        write_jsonl(records(5), tmp_path / "data.jsonl")
        out_path = tmp_path / "audit.json"
        assert main(["verify", str(tmp_path), "--json", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["ok"] is True
        # Downstream tooling keys on a stable schema version; bumping it
        # is a deliberate act, not a side effect.
        from repro.integrity.verify import AUDIT_SCHEMA_VERSION

        assert payload["schema_version"] == AUDIT_SCHEMA_VERSION == 2
        assert payload["index_damaged"] is False
