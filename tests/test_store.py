"""The indexed artifact store: build, query, corrupt, fall back, rebuild.

The load-bearing guarantees:

* the SQLite index answers exactly what a full scan of the shards
  answers — for every filter, on every backend path;
* enabling the store changes nothing: dataset digests, conservation
  accounting and checkpoint bytes are identical with and without a
  ``store_dir``;
* every index corruption mode (bit-flipped page, truncated file,
  silently dropped rows) is detected before a wrong answer can escape,
  consumers degrade to the scan fallback with identical outputs, and
  ``repro verify --rebuild-index`` restores a clean audit.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from datetime import date

import pytest

from repro import telemetry
from repro.attackers.orchestrator import run_simulation
from repro.faults.checkpoint import checkpoint_generations, config_fingerprint
from repro.faults.corruption import (
    INDEX_CORRUPTION_MODES,
    IndexCorruptor,
    build_index_corruptor,
    corrupt_index,
)
from repro.faults.plan import IntegrityFaults
from repro.honeynet.database import SessionDatabase
from repro.store import (
    ResilientArtifactStore,
    SqliteStore,
    StaleIndexError,
    StoreError,
    export_indexed_tree,
    index_path_for,
    rebuild_index,
    recover_tree,
)
from repro.store.base import index_contents, normalize_filters
from repro.util.rng import RngTree
from tests.conftest import PROFILES, make_record, short_fault_config


def records(count: int) -> list:
    return [
        make_record(1_600_000_000.0 + 7200 * i, session_id=f"s-{i:04d}")
        for i in range(count)
    ]


def make_tree(tmp_path, count=20):
    """A small indexed artifact tree; returns (root, sessions)."""
    sessions = records(count)
    export_indexed_tree(sessions, tmp_path)
    return tmp_path, sessions


class TestSqliteStore:
    def test_round_trip(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        with SqliteStore.open(index_path_for(root)) as store:
            assert store.count() == len(sessions)
            assert store.session_ids() == sorted(
                s.session_id for s in sessions
            )
            meta = store.meta()
            assert meta.record_count == len(sessions)
            assert meta.content_digest == SessionDatabase(sessions).digest()
            by_day = store.count_by("day")
            assert sum(by_day.values()) == len(sessions)
            assert store.distinct("day") == sorted(by_day)
            one_day = store.distinct("day")[0]
            assert store.count(day=one_day) == by_day[one_day]

    def test_rows_carry_provenance(self, tmp_path):
        root, sessions = make_tree(tmp_path, count=5)
        with SqliteStore.open(index_path_for(root)) as store:
            rows = store.rows()
        assert [row.seq for row in rows] == list(range(5))
        assert all(row.source == "sessions.jsonl" for row in rows)
        assert all(row.rule_label for row in rows)

    def test_build_is_atomic(self, tmp_path):
        root, _ = make_tree(tmp_path)
        leftovers = list(root.glob("*.tmp"))
        assert leftovers == []

    def test_absent_index_raises(self, tmp_path):
        with pytest.raises(StoreError) as info:
            SqliteStore.open(tmp_path / "index.sqlite")
        assert info.value.reason == "absent"

    def test_stale_fingerprint_and_digest_detected(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        path = index_path_for(root)
        with SqliteStore.open(path) as store:
            digest = store.meta().content_digest
        with pytest.raises(StaleIndexError) as info:
            SqliteStore.open(path, expected_fingerprint="deadbeef")
        assert info.value.reason == "fingerprint-mismatch"
        with pytest.raises(StaleIndexError) as info:
            SqliteStore.open(path, expected_digest="0" * 64)
        assert info.value.reason == "digest-mismatch"
        SqliteStore.open(path, expected_digest=digest).close()

    def test_unsupported_schema_version_rejected(self, tmp_path):
        root, _ = make_tree(tmp_path)
        path = index_path_for(root)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "UPDATE store_meta SET value='99' WHERE key='schema_version'"
            )
        with pytest.raises(StoreError) as info:
            SqliteStore.open(path)
        assert info.value.reason == "unsupported-schema"

    def test_dropped_rows_detected_at_open(self, tmp_path):
        # A healthy-looking database that desynced from its meta must
        # never serve queries — that would be wrong answers, not slow ones.
        root, _ = make_tree(tmp_path)
        path = index_path_for(root)
        with sqlite3.connect(path) as connection:
            connection.execute(
                "DELETE FROM sessions WHERE rowid IN "
                "(SELECT rowid FROM sessions LIMIT 3)"
            )
        with pytest.raises(StoreError) as info:
            SqliteStore.open(path)
        assert info.value.reason == "row-count-mismatch"

    def test_filter_validation(self, tmp_path):
        root, _ = make_tree(tmp_path / "healthy", count=3)
        damaged, _ = make_tree(tmp_path / "damaged", count=3)
        index_path_for(damaged).write_bytes(b"not a database at all")
        # The index and the scan fallback reject the same columns.
        fallback = ResilientArtifactStore(damaged)
        for store in (SqliteStore.open(index_path_for(root)), fallback):
            with pytest.raises(ValueError, match="unknown index column"):
                store.count(bogus="x")
            with pytest.raises(ValueError, match="unknown index column"):
                store.count_by("bogus")
            with pytest.raises(ValueError, match="unknown index column"):
                store.count_by("seq")
            with pytest.raises(ValueError, match="unknown index column"):
                store.distinct("seq")
            store.close()
        assert fallback.source == "scan"

    def test_normalize_filters_coerces(self):
        from repro.honeypot.session import Protocol

        cleaned = normalize_filters(
            {"day": date(2023, 10, 8), "protocol": Protocol.SSH, "sensor_id": None}
        )
        assert cleaned == {"day": "2023-10-08", "protocol": "ssh"}


class TestIndexCorruptor:
    def test_zero_probability_is_inert(self, tmp_path):
        root, _ = make_tree(tmp_path)
        path = index_path_for(root)
        before = path.read_bytes()
        corruptor = IndexCorruptor(
            probability=0.0, tree=RngTree(1).child("index")
        )
        assert corruptor.maybe_corrupt(path, key=0) is None
        assert path.read_bytes() == before
        assert build_index_corruptor(IntegrityFaults(), RngTree(1)) is None

    def test_damage_is_deterministic(self, tmp_path):
        damaged = []
        for attempt in ("a", "b"):
            root = tmp_path / attempt
            root.mkdir()
            export_indexed_tree(records(20), root)
            corruptor = IndexCorruptor(
                probability=1.0, tree=RngTree(9).child("index")
            )
            mode = corruptor.maybe_corrupt(index_path_for(root), key=0)
            assert mode in INDEX_CORRUPTION_MODES
            damaged.append(index_path_for(root).read_bytes())
        assert damaged[0] == damaged[1]

    def test_unknown_mode_rejected(self, tmp_path):
        import random

        root, _ = make_tree(tmp_path)
        path = index_path_for(root)
        before = path.read_bytes()
        with pytest.raises(ValueError, match="unknown index corruption mode"):
            corrupt_index(path, "nuke", random.Random(1))
        assert path.read_bytes() == before

    @pytest.mark.parametrize("mode", INDEX_CORRUPTION_MODES)
    def test_every_mode_damages_and_scan_answers_survive(self, tmp_path, mode):
        import random

        root, sessions = make_tree(tmp_path)
        path = index_path_for(root)
        with SqliteStore.open(path) as store:
            clean_ids = store.session_ids()
            clean_by_day = store.count_by("day")
        corrupt_index(path, mode, random.Random(5))
        # The resilient wrapper must produce identical answers — from
        # the index if the damage happened to be benign, from the scan
        # fallback otherwise.  Either way: complete, correct, no crash.
        store = ResilientArtifactStore(root)
        assert store.session_ids() == clean_ids
        assert store.count_by("day") == clean_by_day
        assert store.source in ("index", "scan")
        store.close()


class TestResilientFallback:
    def test_healthy_index_is_used(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        store = ResilientArtifactStore(root)
        assert store.count() == len(sessions)
        assert store.source == "index"
        assert store.fallback_reason is None
        store.close()

    def test_absent_index_falls_back_loudly(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        index_path_for(root).unlink()
        with telemetry.collecting() as registry:
            store = ResilientArtifactStore(root)
            assert store.session_ids() == sorted(
                s.session_id for s in sessions
            )
            assert store.source == "scan"
            assert store.fallback_reason == "absent"
        assert registry.counters["store.fallback"] == 1
        assert registry.counters["store.fallback.absent"] == 1

    def test_garbage_index_falls_back_with_identical_answers(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        with SqliteStore.open(index_path_for(root)) as clean:
            expected = {
                "ids": clean.session_ids(),
                "by_day": clean.count_by("day"),
                "days": clean.distinct("day"),
                "rows": clean.rows(),
            }
        index_path_for(root).write_bytes(b"not a database at all")
        store = ResilientArtifactStore(root)
        assert store.session_ids() == expected["ids"]
        assert store.count_by("day") == expected["by_day"]
        assert store.distinct("day") == expected["days"]
        assert store.rows() == expected["rows"]
        assert store.source == "scan"
        store.close()

    def test_stale_index_treated_as_damage(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        store = ResilientArtifactStore(
            root, expected_fingerprint="not-this-config"
        )
        assert store.count() == len(sessions)  # scan, not the stale index
        assert store.source == "scan"
        assert store.fallback_reason == "fingerprint-mismatch"
        store.close()

    def test_database_matches_ground_truth(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        store = ResilientArtifactStore(root)
        assert store.database().digest() == SessionDatabase(sessions).digest()
        store.close()
        tree = recover_tree(root)
        assert tree.lost == 0
        assert [r.session_id for r in tree.records] == [
            s.session_id for s in sessions
        ]


class TestRecoveredRows:
    def test_rows_carry_the_seq_of_their_line(self, tmp_path):
        root, _ = make_tree(tmp_path, count=5)
        shard = root / "sessions.jsonl"
        lines = shard.read_text().splitlines()
        del lines[1]  # the seq-1 line
        shard.write_text("".join(line + "\n" for line in lines))
        line_seq = {
            payload["session_id"]: payload["seq"]
            for payload in map(json.loads, lines)
        }
        rebuild_index(root)
        with SqliteStore.open(index_path_for(root)) as store:
            rows = store.rows()
        assert sorted(row.session_id for row in rows) == sorted(line_seq)
        assert {row.session_id: row.seq for row in rows} == line_seq

    def test_records_classify_nothing(self, tmp_path, monkeypatch):
        from repro.analysis.classify import DEFAULT_CLASSIFIER

        root, sessions = make_tree(tmp_path)
        index_path_for(root).unlink()
        classified = []
        monkeypatch.setattr(
            DEFAULT_CLASSIFIER, "classify", classified.append
        )
        store = ResilientArtifactStore(root)
        assert len(store.records()) == len(sessions)
        assert store.database().digest() == SessionDatabase(sessions).digest()
        assert classified == []

    def test_fallback_survives_a_non_utf8_byte(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        shard = root / "sessions.jsonl"
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] |= 0x80
        shard.write_bytes(bytes(data))
        store = ResilientArtifactStore(root)
        assert len(store.records()) == len(sessions) - 1
        store.close()


class TestRebuild:
    def test_rebuild_restores_queryability(self, tmp_path):
        root, sessions = make_tree(tmp_path)
        path = index_path_for(root)
        path.write_bytes(b"garbage")
        rebuilt, rows = rebuild_index(root)
        assert rebuilt == path and rows == len(sessions)
        with SqliteStore.open(path) as store:
            assert store.session_ids() == sorted(
                s.session_id for s in sessions
            )
            assert store.meta().content_digest == SessionDatabase(
                sessions
            ).digest()

    def test_rebuild_without_shards_refuses(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rebuild_index(tmp_path)

    def test_rebuild_from_multiple_shards_dedups(self, tmp_path):
        sessions = records(10)
        export_indexed_tree(sessions, tmp_path, shard_name="a.jsonl")
        from repro.honeynet.io import write_jsonl

        # Second shard re-ships an overlapping slice (at-least-once
        # delivery at the tree level); the rebuild keeps one row each.
        write_jsonl(sessions[5:], tmp_path / "b.jsonl")
        _, rows = rebuild_index(tmp_path)
        assert rows == len(sessions)
        with SqliteStore.open(index_path_for(tmp_path)) as store:
            assert store.count() == len(sessions)

    def test_session_id_repeated_within_a_shard_counts_once(self, tmp_path):
        from repro.cli import main
        from repro.honeynet.io import write_jsonl

        root, sessions = make_tree(tmp_path, count=5)
        # A second shard carries one new session on sequence numbers 0
        # and 1: a redelivery the line sequence cannot deduplicate.
        repeat = make_record(1_700_000_000.0, session_id="s-repeat")
        write_jsonl([repeat, repeat], root / "tail.jsonl")
        expected = len(sessions) + 1
        # The old index misses the new session, so the audit flags it
        # and the rebuild repairs it.
        assert main(["verify", str(root), "--rebuild-index"]) == 0
        assert rebuild_index(root)[1] == expected
        assert len(recover_tree(root).records) == expected
        with SqliteStore.open(index_path_for(root)) as store:
            assert store.count() == expected
        index_path_for(root).unlink()
        fallback = ResilientArtifactStore(root)
        assert fallback.count() == expected
        assert fallback.source == "scan"
        fallback.close()


class TestVerifyIndexAudit:
    def test_clean_tree_passes_with_index_finding(self, tmp_path):
        from repro.integrity.verify import audit_tree

        root, _ = make_tree(tmp_path)
        audit = audit_tree(root)
        assert audit.ok and not audit.index_damaged
        kinds = {f.kind for f in audit.findings}
        assert "index" in kinds

    @pytest.mark.parametrize("mode", ("drop-rows", "truncate"))
    def test_verify_exits_2_then_rebuild_exits_0(self, tmp_path, mode):
        import random

        from repro.cli import main

        root, _ = make_tree(tmp_path)
        corrupt_index(index_path_for(root), mode, random.Random(3))
        assert main(["verify", str(root)]) == 2
        assert main(["verify", str(root), "--rebuild-index"]) == 0
        assert main(["verify", str(root)]) == 0

    def test_a_rewritten_row_fails_the_audit(self, tmp_path):
        from repro.cli import main
        from repro.integrity.verify import audit_tree

        root, sessions = make_tree(tmp_path)
        # Every gate at open still passes: the row count and the meta are
        # untouched, only one row lies about its session.
        with sqlite3.connect(index_path_for(root)) as connection:
            connection.execute(
                "UPDATE sessions SET rule_label = 'tampered', day = "
                "'1999-01-01' WHERE session_id = ?",
                (sessions[3].session_id,),
            )
        connection.close()
        findings = [f for f in audit_tree(root).findings if f.kind == "index"]
        assert [f.status for f in findings] == ["failed"]
        assert "1 content-mismatched" in findings[0].detail
        assert main(["verify", str(root)]) == 2
        assert main(["verify", str(root), "--rebuild-index"]) == 0
        assert main(["verify", str(root)]) == 0
        with SqliteStore.open(index_path_for(root)) as store:
            assert store.count(rule_label="tampered") == 0

    def test_each_index_finding_says_who_falls_back(self, tmp_path):
        import random

        from repro.integrity.verify import audit_tree
        from repro.store import ResilientArtifactStore

        def index_finding(root):
            [finding] = [f for f in audit_tree(root).findings if f.kind == "index"]
            return finding.detail

        # A rewritten row passes every gate at open: the index serves.
        served, sessions = make_tree(tmp_path / "served")
        with sqlite3.connect(index_path_for(served)) as connection:
            connection.execute(
                "UPDATE sessions SET rule_label = 'tampered' WHERE session_id = ?",
                (sessions[3].session_id,),
            )
        connection.close()
        assert "consumers keep answering from it" in index_finding(served)
        assert "fall back" not in index_finding(served)
        store = ResilientArtifactStore(served)
        assert store.count(rule_label="tampered") == 1
        assert store.source == "index"
        store.close()
        # Dropped rows fail the row-count gate at open: consumers fall back.
        refused, _ = make_tree(tmp_path / "refused")
        corrupt_index(index_path_for(refused), "drop-rows", random.Random(3))
        assert "consumers fall back to shard scan" in index_finding(refused)
        store = ResilientArtifactStore(refused)
        store.count()
        assert store.source == "scan"
        store.close()

    def test_an_unreadable_shard_is_one_finding(self, tmp_path, monkeypatch):
        from pathlib import Path

        from repro.cli import main
        from repro.integrity.verify import audit_tree

        root, _ = make_tree(tmp_path)
        # A directory named like a shard is not a shard.
        (root / "broken.jsonl").mkdir()
        assert main(["verify", str(root)]) == 0
        read_bytes = Path.read_bytes

        def unreadable(path):
            if path.name == "sessions.jsonl":
                raise PermissionError(13, "Permission denied", str(path))
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", unreadable)
        audit = audit_tree(root)
        failed = audit.unexplained()
        assert [(f.path, f.kind) for f in failed] == [
            ("sessions.jsonl", "dataset")
        ]
        assert "unreadable" in failed[0].detail
        index = next(f for f in audit.findings if f.kind == "index")
        assert index.status == "quarantined"
        assert main(["verify", str(root)]) == 1

    def test_data_damage_still_exits_1(self, tmp_path):
        from repro.cli import main

        root, _ = make_tree(tmp_path)
        shard = root / "sessions.jsonl"
        shard.write_text(shard.read_text() + "{broken\n")
        assert main(["verify", str(root)]) == 1

    def test_stale_index_content_fails_audit(self, tmp_path):
        from repro.integrity.verify import audit_tree

        root, sessions = make_tree(tmp_path)
        # Replace the index with one built from different data: intact,
        # self-consistent, and lying about this tree.
        export_indexed_tree(records(7), tmp_path / "other")
        (tmp_path / "other" / "index.sqlite").replace(index_path_for(root))
        audit = audit_tree(root)
        assert audit.index_damaged and audit.data_ok

    def test_json_reports_schema_version_and_index_state(self, tmp_path):
        from repro.integrity.verify import AUDIT_SCHEMA_VERSION, audit_tree

        root, _ = make_tree(tmp_path)
        payload = json.loads(audit_tree(root).to_json())
        assert payload["schema_version"] == AUDIT_SCHEMA_VERSION
        assert payload["index_damaged"] is False


class TestQueryCli:
    def test_query_smoke_and_fallback_note(self, tmp_path, capsys):
        from repro.cli import main

        root, sessions = make_tree(tmp_path)
        assert main(["query", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"{len(sessions)} sessions match" in out
        assert "source: index" in out

        index_path_for(root).write_bytes(b"garbage")
        assert main(["query", str(root), "--by", "day", "--ids"]) == 0
        out = capsys.readouterr().out
        assert "source: scan" in out and "--rebuild-index" in out

    def test_query_missing_path(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["query", str(tmp_path / "absent")]) == 2

    def test_query_filters(self, tmp_path, capsys):
        from repro.cli import main

        root, sessions = make_tree(tmp_path, count=6)
        day = "2020-09-13"
        assert main(["query", str(root), "--day", day, "--protocol", "ssh"]) == 0
        out = capsys.readouterr().out
        assert "sessions match" in out and f"day={day}" in out


class TestStoreNeutrality:
    """The store is a pure projection: outputs identical with it on/off."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_serial_digest_and_accounting_identical(
        self, tmp_path, profile, serial_baselines
    ):
        base = serial_baselines[profile]
        stored = run_simulation(
            short_fault_config(profile), store_dir=tmp_path
        )
        assert stored.database.digest() == base.database.digest()
        assert (
            stored.collector.accounting() == base.collector.accounting()
        )
        # The tree is complete, matches the run, and audits clean under
        # profiles without index corruption; under stress the index may
        # be damaged by schedule, but the scan path still reproduces the
        # dataset exactly.
        store = ResilientArtifactStore(tmp_path)
        assert store.database().digest() == base.database.digest()
        store.close()

    def test_checkpoint_bytes_identical(self, tmp_path):
        config = short_fault_config("paper")
        plain = run_simulation(
            config, checkpoint_path=tmp_path / "a" / "run.ckpt",
            checkpoint_every_days=10,
        )
        stored = run_simulation(
            config, checkpoint_path=tmp_path / "b" / "run.ckpt",
            checkpoint_every_days=10, store_dir=tmp_path / "b" / "artifacts",
        )
        assert plain.database.digest() == stored.database.digest()
        a_generations = [
            p for p in checkpoint_generations(tmp_path / "a" / "run.ckpt")
            if p.exists()
        ]
        b_generations = [
            p for p in checkpoint_generations(tmp_path / "b" / "run.ckpt")
            if p.exists()
        ]
        assert a_generations
        assert [p.name for p in a_generations] == [
            p.name for p in b_generations
        ]
        for a, b in zip(a_generations, b_generations):
            assert a.read_bytes() == b.read_bytes()

    def test_export_meta_pins_run_identity(self, tmp_path):
        config = short_fault_config("none")
        result = run_simulation(config, store_dir=tmp_path)
        with SqliteStore.open(index_path_for(tmp_path)) as store:
            meta = store.meta()
        assert meta.config_fingerprint == config_fingerprint(config)
        assert meta.content_digest == result.database.digest()
        # And the staleness gate accepts exactly this run's identity.
        SqliteStore.open(
            index_path_for(tmp_path),
            expected_fingerprint=config_fingerprint(config),
            expected_digest=result.database.digest(),
        ).close()

    def test_stress_schedule_completes_via_fallback(self, tmp_path):
        # stress sets index_corruption_probability=0.25; force certainty
        # so the test exercises the damaged path regardless of the draw.
        import dataclasses

        config = short_fault_config("stress")
        config = config.replace(
            faults=dataclasses.replace(
                config.faults,
                integrity=dataclasses.replace(
                    config.faults.integrity, index_corruption_probability=1.0
                ),
            )
        )
        result = run_simulation(config, store_dir=tmp_path)
        store = ResilientArtifactStore(tmp_path)
        assert store.database().digest() == result.database.digest()
        store.close()


class TestSessionDatabaseRaceSafety:
    @pytest.mark.parametrize("method", ("ssh_sessions", "command_sessions"))
    def test_concurrent_first_queries_build_once(self, method):
        database = SessionDatabase(records(50))
        barrier = threading.Barrier(8)
        results = []

        def hammer():
            barrier.wait()
            results.append(getattr(database, method)())

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 8
        # Every caller must see the same built-exactly-once cache object.
        assert all(value is results[0] for value in results)
        assert results[0] == getattr(database, method)()

    def test_database_survives_pickling(self):
        import pickle

        database = SessionDatabase(records(5))
        database.ssh_sessions()
        clone = pickle.loads(pickle.dumps(database))
        assert clone.digest() == database.digest()
        assert clone.ssh_sessions() == database.ssh_sessions()


class TestStoreTelemetry:
    def test_counters_and_spans_recorded(self, tmp_path):
        with telemetry.collecting() as registry:
            export_indexed_tree(records(8), tmp_path)
            with SqliteStore.open(index_path_for(tmp_path)) as store:
                store.count()
        assert registry.counters["store.builds"] == 1
        assert registry.counters["store.build.rows"] == 8
        assert registry.counters["store.opens"] == 2  # build opens once too
        assert registry.counters["store.queries"] >= 1

    def test_rebuild_counts(self, tmp_path):
        root, _ = make_tree(tmp_path)
        with telemetry.collecting() as registry:
            rebuild_index(root)
        assert registry.counters["store.rebuilds"] == 1

    def test_store_metrics_are_merge_only(self):
        assert "store." in telemetry.MERGE_ONLY_PREFIXES
        view = telemetry.comparable_view(
            {"counters": {"store.fallback": 3, "sim.days": 2}, "histograms": {}}
        )
        assert "store.fallback" not in view["counters"]
        assert view["counters"]["sim.days"] == 2


class TestIndexRowSemantics:
    def test_index_rows_match_classifier_and_day(self):
        sessions = records(4)[::-1]
        origins = [("x.jsonl", seq) for seq in range(len(sessions))]
        rows, _ = index_contents(sessions, origins)
        from repro.analysis.classify import DEFAULT_CLASSIFIER
        from repro.util.timeutils import epoch_date

        by_id = {row.session_id: row for row in rows}
        for seq, session in enumerate(sessions):
            row = by_id[session.session_id]
            assert (row.source, row.seq) == ("x.jsonl", seq)
            assert row.day == epoch_date(session.start).isoformat()
            assert row.rule_label == DEFAULT_CLASSIFIER.classify(session)
            assert row.sensor_id == session.honeypot_id

    def test_content_digest_matches_database_digest(self):
        sessions = records(6)[::-1]
        origins = [("x.jsonl", seq) for seq in range(len(sessions))]
        _, meta = index_contents(sessions, origins)
        assert meta.content_digest == SessionDatabase(sessions).digest()
        assert meta.record_count == len(sessions)
