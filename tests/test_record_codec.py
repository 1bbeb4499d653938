"""A session record's bytes, pinned end to end, and how often they are made.

Every artifact that hashes a record starts from its canonical bytes:
the line checksum, each index row's ``session_hash``, ``store_meta``'s
content digest, the dataset digest and the live snapshot's rolling
digest.  The pins hold each artifact's bytes still while the code that
makes them changes; the counting tests hold each index pass to one
canonical encoding per record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import date

import pytest

from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.faults.plan import FloodFaults
from repro.integrity.verify import audit_tree
from repro.service import SnapshotPublisher
from repro.store import (
    SqliteStore,
    export_indexed_tree,
    rebuild_index,
)
from repro.stream.engine import StreamPolicy, run_stream
from tests.conftest import GOLDEN_DEFAULT_DIGEST

#: SHA-256 of each artifact of the default dataset's indexed tree: the
#: shard and its manifest as bytes, the index rows (``rows()``, in
#: ``(source, seq)`` order) and ``store_meta`` as canonical JSON.
TREE_PINS = {
    "shard": "031e3c0bb17ef6bf26f1f8cf27def762da8cf27e572fd86cac659c84f6e17728",
    "manifest": "abc25267169b7a89ba9ba8ea2d2aa05e56bffed538a40cd0a3241194181d132e",
    "rows": "adb5a9e2c5aead9e42e68e3165ec5c0179cdf6c6dd1ea1443a5dc66bbd7bce14",
    "store_meta": "b723f6186da58c1495c02ef2f5ca2c974ca5dd9ea9e1e8176cf5b7bd63feb779",
}

#: SHA-256 of the checkpoint file a run over :data:`SHORT` leaves when
#: it stops after 2023-02-15, saving every 30 days.
CHECKPOINT_PIN = "18177ca50dc422b6024d4251c08a09ed65ea325f883f43dcecdbe38848ed875f"

#: The last live snapshot's rolling ``content_digest`` of :data:`SHORT`
#: under the ``burst`` flood and ``StreamPolicy.live()``.
SNAPSHOT_PIN = "ecc025d8541b9f362218cca937c1affd834f3924d7bf7112e3cdbbfaae156ffd"

#: A one-quarter window of the default run (1,205 stored records).
SHORT = SimulationConfig(
    seed=7, scale=2e-5, start=date(2023, 1, 1), end=date(2023, 3, 31)
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(canonical.encode("utf-8"))


class TestCodecPins:
    def test_indexed_tree_is_pinned(self, dataset, tmp_path):
        index = export_indexed_tree(
            dataset.database.sessions, tmp_path, config=DEFAULT_CONFIG
        )
        with SqliteStore.open(index) as store:
            rows = [dataclasses.astuple(row) for row in store.rows()]
            meta = store.meta()
        assert {
            "shard": sha256((tmp_path / "sessions.jsonl").read_bytes()),
            "manifest": sha256(
                (tmp_path / "sessions.jsonl.manifest.json").read_bytes()
            ),
            "rows": sha256_json(rows),
            "store_meta": sha256_json(dataclasses.asdict(meta)),
        } == TREE_PINS
        assert meta.content_digest == GOLDEN_DEFAULT_DIGEST

    def test_checkpoint_file_is_pinned(self, tmp_path):
        path = tmp_path / "ck.json"
        run_simulation(
            SHORT,
            checkpoint_path=path,
            checkpoint_every_days=30,
            stop_after=date(2023, 2, 15),
        )
        assert sha256(path.read_bytes()) == CHECKPOINT_PIN

    def test_live_snapshot_digest_is_pinned(self):
        config = SHORT.replace(
            faults=dataclasses.replace(
                SHORT.faults, flood=FloodFaults.from_name("burst")
            )
        )
        publisher = SnapshotPublisher()
        run_stream(config, policy=StreamPolicy.live(), publisher=publisher)
        assert publisher.latest.content_digest == SNAPSHOT_PIN


@pytest.fixture(scope="module")
def short_records():
    return run_simulation(SHORT).database.sessions


@pytest.fixture
def canonical_encodings(monkeypatch):
    """Count the canonical (sorted-key, compact) JSON encodings made."""
    calls = []
    encode = json.JSONEncoder.encode

    def counting(encoder, payload):
        if (
            encoder.sort_keys
            and encoder.item_separator == ","
            and encoder.key_separator == ":"
        ):
            calls.append(1)
        return encode(encoder, payload)

    monkeypatch.setattr(json.JSONEncoder, "encode", counting)
    return calls


class TestOneEncodingPerIndexPass:
    """Each record is encoded once for its line's checksum and once for
    the pass that yields its index row and the content digest."""

    def test_export(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        assert len(canonical_encodings) == 2 * len(short_records)

    def test_rebuild(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        canonical_encodings.clear()
        _, rows = rebuild_index(tmp_path)
        assert rows == len(short_records)
        assert len(canonical_encodings) == 2 * len(short_records)

    def test_audit(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        canonical_encodings.clear()
        audit = audit_tree(tmp_path)
        assert audit.ok and not audit.index_damaged
        assert audit.records_verified == len(short_records)
        assert len(canonical_encodings) == 2 * len(short_records)
