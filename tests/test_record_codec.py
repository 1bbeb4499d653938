"""A session record's bytes, pinned end to end, and how often they are made.

Every artifact that hashes a record starts from its canonical bytes:
the line checksum, each index row's ``session_hash``, ``store_meta``'s
content digest, the dataset digest and the live snapshot's rolling
digest.  The property tests hold the directly composed bytes and line
checksums equal to their definitions (``canonical_json`` of
``session_to_dict``, ``payload_checksum`` of the sealed envelope) for
any value a record can hold.  The pins hold each artifact's bytes still
while the code that makes them changes; the counting tests hold each
index pass to one canonical encoding per record and the snapshot fold
to one per fresh record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.honeynet.io as codec
from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.faults.plan import FloodFaults
from repro.honeynet.collector import Collector
from repro.honeynet.io import sealed_dict, session_from_dict, session_to_dict
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.integrity.verify import audit_tree
from repro.service import SnapshotPublisher
from repro.store import (
    SqliteStore,
    export_indexed_tree,
    rebuild_index,
)
from repro.stream.engine import StreamPolicy, run_stream
from tests.codec_reference import codec_mismatches
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
    """Count a record's canonical encodings: each composition of its
    bytes (``"composed"``) and each encode of a whole payload through
    the canonical (sorted-key, compact) encoder (``"reference"``).  The
    encodes a composition makes of its nested arrays are part of it."""
    calls: list[str] = []
    composing: list[bool] = []
    compose = codec._compose
    encode = json.JSONEncoder.encode

    def counting_compose(session, seq=None):
        calls.append("composed")
        composing.append(True)
        try:
            return compose(session, seq)
        finally:
            composing.pop()

    def counting_encode(encoder, payload):
        if (
            not composing
            and encoder.sort_keys
            and encoder.item_separator == ","
            and encoder.key_separator == ":"
        ):
            calls.append("reference")
        return encode(encoder, payload)

    monkeypatch.setattr(codec, "_compose", counting_compose)
    monkeypatch.setattr(json.JSONEncoder, "encode", counting_encode)
    return calls


class TestOneEncodingPerIndexPass:
    """Each record is encoded once for its line's checksum and once for
    the pass that yields its index row and the content digest.  Writers
    compose both; a reader verifies a line's checksum over the parsed
    envelope, through the reference encoder."""

    def test_export(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        assert Counter(canonical_encodings) == {"composed": 2 * len(short_records)}

    def test_rebuild(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        canonical_encodings.clear()
        _, rows = rebuild_index(tmp_path)
        assert rows == len(short_records)
        assert Counter(canonical_encodings) == {
            "composed": len(short_records),
            "reference": len(short_records),
        }

    def test_audit(self, short_records, tmp_path, canonical_encodings):
        export_indexed_tree(short_records, tmp_path)
        canonical_encodings.clear()
        audit = audit_tree(tmp_path)
        assert audit.ok and not audit.index_damaged
        assert audit.records_verified == len(short_records)
        assert Counter(canonical_encodings) == {
            "composed": len(short_records),
            "reference": len(short_records),
        }


class TestOneCompositionPerFold:
    def test_fresh_records_only(self, short_records, canonical_encodings):
        collector = Collector(sessions=list(short_records[:100]))
        publisher = SnapshotPublisher()
        assert publisher.publish_day(collector, date(2023, 1, 1)) is not None
        assert canonical_encodings == ["composed"] * 100

        canonical_encodings.clear()
        assert publisher.publish_day(collector, date(2023, 1, 2)) is None
        assert publisher.skipped_clean == 1
        assert canonical_encodings == []

        collector.sessions.extend(short_records[100:130])
        assert publisher.publish_day(collector, date(2023, 1, 3)) is not None
        assert canonical_encodings == ["composed"] * 30


# ----------------------------------------------------------------------
# the composition against its definition
# ----------------------------------------------------------------------

#: Text with non-ASCII, control and escape-worthy characters.
texts = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "\x00", "\x1f\x7f", '"\\/', "\u2028", "é", "\U0001f600"]),
)
#: Floats at the edges of what ``json`` and ``repr`` render: -0.0,
#: huge, subnormal and non-finite values.
floats = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 1e308, 5e-324, 2.2250738585072014e-308, float("nan"), float("inf")]
    ),
)
#: Values a foreign line can leave where a number or a string belongs.
scalars = st.one_of(st.none(), texts, st.integers(), st.booleans(), floats)

#: A record's top-level scalar fields.
SCALAR_FIELDS = (
    "session_id",
    "honeypot_id",
    "honeypot_ip",
    "honeypot_port",
    "client_ip",
    "client_port",
    "start",
    "end",
    "ssh_version",
    "timed_out",
    "bot_label",
)


@st.composite
def records(draw, foreign: bool = False) -> SessionRecord:
    """A record with the types the simulator gives each field (any text,
    any float, every ``FileOp``) or, when ``foreign``, with one
    top-level field holding any JSON scalar and the nested flags and
    URIs holding any scalar too, as a foreign line can leave them."""
    flags = st.one_of(st.booleans(), scalars) if foreign else st.booleans()

    def entries(*fields):
        return st.lists(st.tuples(*fields), max_size=3)

    record = SessionRecord(
        session_id=draw(texts),
        honeypot_id=draw(texts),
        honeypot_ip=draw(texts),
        honeypot_port=draw(st.integers()),
        protocol=draw(st.sampled_from(Protocol)),
        client_ip=draw(texts),
        client_port=draw(st.integers()),
        start=draw(floats),
        end=draw(floats),
        ssh_version=draw(st.one_of(st.none(), texts)),
        logins=[
            LoginAttempt(*entry) for entry in draw(entries(texts, texts, flags))
        ],
        commands=[
            CommandRecord(*entry) for entry in draw(entries(texts, flags, texts))
        ],
        uris=draw(st.lists(scalars if foreign else texts, max_size=3)),
        file_events=[
            FileEvent(*entry)
            for entry in draw(
                entries(
                    texts,
                    st.sampled_from(FileOp),
                    st.one_of(st.none(), texts),
                    texts,
                )
            )
        ],
        timed_out=draw(st.booleans()),
        bot_label=draw(st.one_of(st.none(), texts)),
    )
    if foreign:
        setattr(record, draw(st.sampled_from(SCALAR_FIELDS)), draw(scalars))
    return record


def assert_matches_definition(record: SessionRecord, seq: int) -> None:
    assert codec_mismatches(record, seq) == []
    # The line itself keeps session_to_dict's keys and order, then "seq".
    line = sealed_dict(record, seq)
    del line["sha"]
    assert json.dumps(line) == json.dumps({**session_to_dict(record), "seq": seq})


sequence_numbers = st.integers(min_value=0, max_value=10**12)

#: A well-formed line; each hand-written case changes one thing in it.
BASE_LINE = (
    '{"v":1,"session_id":"a","honeypot_id":"hp-1","honeypot_ip":"192.0.2.1",'
    '"honeypot_port":22,"protocol":"ssh","client_ip":"198.51.100.7",'
    '"client_port":40000,"start":1672531200.25,"end":1672531205.5}'
)


class TestCompositionEqualsDefinition:
    @given(records(), sequence_numbers)
    @settings(max_examples=300, deadline=None)
    def test_simulator_typed_record(self, record, seq):
        assert_matches_definition(record, seq)
        if math.isfinite(record.start) and math.isfinite(record.end):
            assert codec._compose(record, seq) is not None

    @given(records(foreign=True), sequence_numbers)
    @settings(max_examples=400, deadline=None)
    def test_foreign_record(self, record, seq):
        assert_matches_definition(record, seq)

    def test_every_simulated_record_is_composed(self, short_records):
        for seq, record in enumerate(short_records):
            assert codec._compose(record) is not None
            assert_matches_definition(record, seq)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"start":1672531200.25', '"start":1672531200'),
            ('"honeypot_port":22', '"honeypot_port":true'),
            ('"client_port":40000', '"client_port":false'),
            ('"client_port":40000', '"client_port":22.0'),
            ('"end":1672531205.5', '"end":NaN'),
            ('"end":1672531205.5', '"end":Infinity'),
            ('"start":1672531200.25', '"start":-Infinity'),
            ('"start":1672531200.25', '"start":-0.0'),
            ('"end":1672531205.5', '"end":5e-324'),
            ('"session_id":"a"', '"session_id":7'),
            ('"client_ip":"198.51.100.7"', '"client_ip":1.5'),
            ('"v":1', '"v":1,"ssh_version":3,"bot_label":false'),
            ('"v":1', '"v":1,"timed_out":0'),
            ('"session_id":"a"', r'"session_id":"b\u00e9\u0000\u2028\"\\"'),
            (
                '"v":1',
                r'"v":1,"logins":[["root","\u0000",1]],'
                r'"commands":[["uname -a",0,"Linux\n"]],'
                r'"uris":["http://x/\u00ff",null,2.5],'
                r'"file_events":[["/tmp/x","execute_missing",null,"transfer"]]',
            ),
        ],
    )
    def test_records_rebuilt_from_hand_written_lines(self, old, new):
        record = session_from_dict(json.loads(BASE_LINE.replace(old, new)))
        assert_matches_definition(record, 12)
