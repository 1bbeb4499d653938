"""Session-log persistence: self-verifying JSONL export/import.

The analyses only consume :class:`SessionRecord`s, so a dataset written
with :func:`write_jsonl` and read back with :func:`read_jsonl` is fully
analyzable — and real Cowrie logs exported into the same schema can be
fed straight into the pipeline.  The format is one JSON object per
line with an explicit schema version.

Exports are self-verifying at three layers:

* each line carries a sequence number (``"seq"``) and a content
  checksum (``"sha"``, :mod:`repro.integrity.checksums`) over the whole
  envelope;
* the file gets a sidecar manifest (line count + rolling digest,
  :mod:`repro.integrity.manifest`) computed over the *clean* lines
  before any injected corruption touches them;
* the write itself is atomic (temp + fsync + rename), so a killed
  export never leaves a half-written dataset.

Reading is strict — any damage makes :func:`read_jsonl` raise
:class:`SessionLogError` with path/line/reason context.  The lenient
read (:func:`recover_jsonl`) instead reconstructs everything
recoverable: duplicated lines are dropped by sequence number, reordered
lines are re-sorted, and every unrecoverable line is quarantined with
provenance (:mod:`repro.integrity.quarantine`) so the loss shows up in
conservation accounting instead of vanishing.

The checksum lives in the line *envelope*, not in
:func:`session_to_dict` itself: a record's canonical bytes
(:func:`record_bytes`) encode the record dict alone, and the record
hash, the dataset digest (:func:`dataset_digest`) and every index row
start from them, so the dict must not change shape.

Those bytes are defined as ``canonical_json(session_to_dict(record))``
(:mod:`repro.integrity.checksums`), but they are composed directly from
the record's fields: a fixed template of the 17 sorted keys, each value
rendered as :mod:`json` renders it, with no dict, key sort or encoder
built per record.  A line's checksum is the same composition with
``"seq":N,`` in its sorted place (between ``"protocol"`` and
``"session_id"``), and a checkpoint record's is the composition alone
(:func:`sealed_dict`).  A value the template does not render exactly (a
non-finite float, a ``bool`` where an ``int`` belongs, any unexpected
type a foreign line left in a record) sends the record through the
definition instead, so the bytes always equal it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Iterable

from repro import telemetry
from repro.honeynet.collector import PERSISTED_COUNTERS
from repro.honeypot.session import (
    CommandRecord,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.integrity.checksums import (
    RECORD_CHECKSUM_KEY,
    canonical_json,
    text_checksum,
    verify_seal,
)
from repro.integrity.manifest import (
    Manifest,
    ManifestError,
    build_manifest,
    data_manifest,
    read_manifest,
    write_manifest,
)
from repro.integrity.quarantine import QuarantineStore
from repro.util.fsio import atomic_write_text

#: Format version written into every line.
SCHEMA_VERSION = 1

#: Envelope key carrying the line's position in the written sequence.
SEQ_KEY = "seq"


class SessionLogError(ValueError):
    """Raised for malformed or incompatible session-log data.

    Carries structured context — ``path``, ``line`` (1-based) and a
    stable ``reason`` slug — so callers (and the quarantine store) can
    report *where* and *why* without parsing the message.
    """

    def __init__(
        self,
        message: str,
        *,
        path: Path | str | None = None,
        line: int | None = None,
        reason: str | None = None,
    ) -> None:
        context = []
        if path is not None:
            context.append(str(path))
        if line is not None:
            context.append(f"line {line}")
        prefix = ": ".join(context)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.path = str(path) if path is not None else None
        self.line = line
        self.reason = reason


def session_to_dict(session: SessionRecord) -> dict:
    """The JSON-serializable form of one session record."""
    return {
        "v": SCHEMA_VERSION,
        "session_id": session.session_id,
        "honeypot_id": session.honeypot_id,
        "honeypot_ip": session.honeypot_ip,
        "honeypot_port": session.honeypot_port,
        "protocol": session.protocol.value,
        "client_ip": session.client_ip,
        "client_port": session.client_port,
        "start": session.start,
        "end": session.end,
        "ssh_version": session.ssh_version,
        "logins": [
            [attempt.username, attempt.password, attempt.success]
            for attempt in session.logins
        ],
        "commands": [
            [record.raw, record.known, record.output]
            for record in session.commands
        ],
        "uris": list(session.uris),
        "file_events": [
            [event.path, event.op.value, event.sha256, event.source]
            for event in session.file_events
        ],
        "timed_out": session.timed_out,
        "bot_label": session.bot_label,
    }


#: The canonical encoder's own string renderer; it raises TypeError for
#: anything but a ``str``.  The encoder renders a finite ``float`` by its
#: ``repr`` and an ``int`` (no ``bool``) in decimal, which is what
#: :func:`_compose`'s f-string does with each once its type is checked.
_json_str = encode_basestring_ascii


def _compose(session: SessionRecord, seq: int | None = None) -> str | None:
    """``canonical_json`` of :func:`session_to_dict` (plus ``"seq"``
    when ``seq`` is given), composed from the record's fields; None when
    a value is one the template does not render exactly, so the caller
    encodes the dict instead."""
    start, end = session.start, session.end
    client_port, honeypot_port = session.client_port, session.honeypot_port
    timed_out = session.timed_out
    if not (
        type(start) is float
        and type(end) is float
        and isfinite(start)
        and isfinite(end)
        and type(client_port) is int
        and type(honeypot_port) is int
        and type(timed_out) is bool
        and (seq is None or type(seq) is int)
    ):
        return None
    label, version = session.bot_label, session.ssh_version
    logins, commands = session.logins, session.commands
    uris, events = session.uris, session.file_events
    # A text field holding anything but a str raises TypeError here.
    try:
        bot_label = "null" if label is None else _json_str(label)
        ssh_version = "null" if version is None else _json_str(version)
        client_ip = _json_str(session.client_ip)
        honeypot_id = _json_str(session.honeypot_id)
        honeypot_ip = _json_str(session.honeypot_ip)
        protocol = _json_str(session.protocol.value)
        session_id = _json_str(session.session_id)
        # The nested arrays go through the encoder itself; most records
        # have few or none of each.
        logins = (
            canonical_json([[a.username, a.password, a.success] for a in logins])
            if logins
            else "[]"
        )
        commands = (
            canonical_json([[c.raw, c.known, c.output] for c in commands])
            if commands
            else "[]"
        )
        uris = canonical_json(list(uris)) if uris else "[]"
        events = (
            canonical_json(
                [[e.path, e.op.value, e.sha256, e.source] for e in events]
            )
            if events
            else "[]"
        )
    except TypeError:
        return None
    # "seq" sorts between "protocol" and "session_id".
    seq_field = "" if seq is None else f'"{SEQ_KEY}":{seq},'
    return (
        f'{{"bot_label":{bot_label},"client_ip":{client_ip},'
        f'"client_port":{client_port},"commands":{commands},'
        f'"end":{end!r},"file_events":{events},'
        f'"honeypot_id":{honeypot_id},"honeypot_ip":{honeypot_ip},'
        f'"honeypot_port":{honeypot_port},"logins":{logins},'
        f'"protocol":{protocol},{seq_field}"session_id":{session_id},'
        f'"ssh_version":{ssh_version},"start":{start!r},'
        f'"timed_out":{"true" if timed_out else "false"},"uris":{uris},'
        f'"v":{SCHEMA_VERSION}}}'
    )


def record_bytes(session: SessionRecord) -> bytes:
    """A record's canonical bytes: :func:`session_to_dict` as sorted-key,
    compact JSON (``canonical_json``, the definition), composed directly.
    Every hash of a record's content starts here."""
    text = _compose(session)
    if text is None:
        text = canonical_json(session_to_dict(session))
    return text.encode("utf-8")


def sealed_dict(session: SessionRecord, seq: int | None = None) -> dict:
    """:func:`session_to_dict` sealed with its content checksum
    (``"sha"``): a shard line's envelope when ``seq`` is the line's
    sequence number, which the checksum then covers too, or a checkpoint
    record when ``seq`` is None.  The checksum equals
    :func:`~repro.integrity.checksums.payload_checksum` of the result."""
    payload = session_to_dict(session)
    if seq is not None:
        payload[SEQ_KEY] = seq
    text = _compose(session, seq)
    if text is None:
        text = canonical_json(payload)
    payload[RECORD_CHECKSUM_KEY] = text_checksum(text)
    return payload


def dataset_digest(encodings: Iterable[bytes]) -> str:
    """SHA-256 over records' canonical bytes, each followed by a newline.

    Over a dataset's records in database order (``start``, then
    ``session_id``) this is the dataset digest: two runs produced the
    same dataset iff their digests match.
    """
    hasher = hashlib.sha256()
    for data in encodings:
        hasher.update(data)
        hasher.update(b"\n")
    return hasher.hexdigest()


def session_from_dict(payload: dict) -> SessionRecord:
    """Rebuild a session record from its JSON form.

    Envelope metadata (``"seq"``, ``"sha"``) is tolerated and, when a
    checksum is present, verified — a record that parses but fails its
    checksum is corrupt, not merely odd.
    """
    version = payload.get("v")
    if version != SCHEMA_VERSION:
        raise SessionLogError(
            f"unsupported session-log version: {version!r}",
            reason="unsupported-version",
        )
    if RECORD_CHECKSUM_KEY in payload and not verify_seal(payload):
        raise SessionLogError(
            "record content does not match its checksum",
            reason="checksum-mismatch",
        )
    try:
        return SessionRecord(
            session_id=payload["session_id"],
            honeypot_id=payload["honeypot_id"],
            honeypot_ip=payload["honeypot_ip"],
            honeypot_port=payload["honeypot_port"],
            protocol=Protocol(payload["protocol"]),
            client_ip=payload["client_ip"],
            client_port=payload["client_port"],
            start=payload["start"],
            end=payload["end"],
            ssh_version=payload.get("ssh_version"),
            logins=[
                LoginAttempt(username, password, bool(success))
                for username, password, success in payload.get("logins", [])
            ],
            commands=[
                CommandRecord(raw=raw, known=bool(known), output=output)
                for raw, known, output in payload.get("commands", [])
            ],
            uris=list(payload.get("uris", [])),
            file_events=[
                FileEvent(path, FileOp(op), sha256, source)
                for path, op, sha256, source in payload.get("file_events", [])
            ],
            timed_out=bool(payload.get("timed_out", False)),
            bot_label=payload.get("bot_label"),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SessionLogError(
            f"malformed session-log record: {error}",
            reason="malformed-record",
        ) from error


def write_jsonl(
    sessions: Iterable[SessionRecord],
    path: Path | str,
    *,
    corruptor=None,
) -> int:
    """Write sessions to a JSONL file; returns the clean record count.

    The write is atomic; each line is sealed with a sequence number and
    content checksum; a sidecar manifest pins the clean content.  An
    optional :class:`~repro.faults.corruption.LogCorruptor` is applied
    *after* the manifest is computed — it models damage in the storage
    path, not in the writer.
    """
    path = Path(path)
    lines: list[str] = []
    for sequence, session in enumerate(sessions):
        lines.append(json.dumps(sealed_dict(session, sequence)))
    document = build_manifest(lines)
    written = corruptor.corrupt_lines(lines) if corruptor is not None else lines
    atomic_write_text(path, "".join(line + "\n" for line in written))
    write_manifest(path, document)
    telemetry.count("integrity.records_written", document.lines)
    return document.lines


def _split_lines(data: bytes) -> list[bytes]:
    """A file's physical lines: split on ``\\n`` only, as the manifest
    counts them, with no empty slot after a final newline."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return lines


def _parse_line(raw: bytes) -> tuple[int | None, SessionRecord] | None:
    """One physical line as ``(seq, record)``, or None when it is blank.

    The one line parser of the strict and the lenient read.  A line
    that is not UTF-8, not JSON or not a JSON object is
    ``invalid-json``; a record that fails :func:`session_from_dict`
    keeps that function's reason.
    Raises :class:`SessionLogError` without path or line context — the
    caller knows both.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise SessionLogError(
            "line is not valid UTF-8", reason="invalid-json"
        ) from error
    if not text.strip():
        return None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SessionLogError("invalid JSON", reason="invalid-json") from error
    if not isinstance(payload, dict):
        raise SessionLogError(
            "line is not a JSON object", reason="invalid-json"
        )
    record = session_from_dict(payload)
    sequence = payload.get(SEQ_KEY)
    return (sequence if isinstance(sequence, int) else None), record


def read_jsonl(path: Path | str) -> list[SessionRecord]:
    """Load all session records from a JSONL file.

    Raises :class:`SessionLogError` on the first damaged line and, when
    a sidecar manifest exists, on any divergence between the manifest
    and the bytes on disk.  :func:`recover_jsonl` recovers instead.
    """
    path = Path(path)
    data = path.read_bytes()
    records: list[SessionRecord] = []
    for line_number, raw in enumerate(_split_lines(data), start=1):
        try:
            parsed = _parse_line(raw)
        except SessionLogError as error:
            raise SessionLogError(
                str(error), path=path, line=line_number, reason=error.reason
            ) from error
        if parsed is not None:
            records.append(parsed[1])
    try:
        expected = read_manifest(path)
    except ManifestError as error:
        raise SessionLogError(
            str(error), path=path, reason="manifest-unreadable"
        ) from error
    if expected is not None:
        actual = data_manifest(data)
        if (actual.lines, actual.sha256) != (expected.lines, expected.sha256):
            raise SessionLogError(
                "file content diverges from its manifest "
                f"({actual.lines} lines on disk, {expected.lines} promised)",
                path=path,
                reason="manifest-mismatch",
            )
    return records


# ----------------------------------------------------------------------
# lenient recovery
# ----------------------------------------------------------------------

@dataclass
class RecoveryReport:
    """What a lenient read found, recovered and lost for one file."""

    path: str
    physical_lines: int = 0
    blank_lines: int = 0
    #: Lines that parsed and passed their checksum (duplicates included).
    parsed: int = 0
    #: Records returned after dedup + reordering.
    recovered: int = 0
    duplicates: int = 0
    #: Lines observed out of sequence order (repaired by sorting).
    reordered: int = 0
    #: ``(line_number, reason)`` for every quarantined physical line.
    bad_lines: tuple[tuple[int, str], ...] = ()
    #: Sequence numbers that should exist but no surviving line carries.
    missing_seqs: tuple[int, ...] = ()
    manifest_lines: int | None = None
    manifest_match: bool | None = None
    #: Why a sidecar manifest that exists could not be read.
    manifest_error: ManifestError | None = None

    @property
    def quarantined(self) -> int:
        """Physical lines quarantined (unparseable or checksum-failed)."""
        return len(self.bad_lines)

    @property
    def missing(self) -> int:
        return len(self.missing_seqs)

    @property
    def lost(self) -> int:
        """Records that could not be recovered, each counted once: the
        sequence numbers the manifest promised that no line carries or,
        without a manifest, the corrupt lines."""
        if self.manifest_lines is not None:
            return self.missing
        return self.quarantined

    def conservation_balanced(self) -> bool:
        """Line-level conservation over the recovery boundary."""
        lines_ok = self.physical_lines == (
            self.parsed + self.blank_lines + self.quarantined
        )
        records_ok = self.parsed == self.recovered + self.duplicates
        manifest_ok = self.manifest_lines is None or (
            self.manifest_lines == self.recovered + self.missing
        )
        return lines_ok and records_ok and manifest_ok


@dataclass
class RecoveredLog:
    """Everything a lenient read returns."""

    records: list[SessionRecord]
    report: RecoveryReport
    quarantine: QuarantineStore | None = field(default=None, repr=False)
    #: Each record's sequence number, in step with ``records``: the one
    #: its line carries, or its position for legacy lines without one.
    seqs: list[int] = field(default_factory=list)


def recover_jsonl(
    path: Path | str,
    *,
    quarantine: Path | str | QuarantineStore | None = None,
) -> RecoveredLog:
    """Recover everything recoverable from a possibly damaged JSONL file.

    Duplicated lines are dropped by sequence number, reordered lines are
    re-sorted, and every unrecoverable line — invalid JSON, failed
    checksum, bad schema version, malformed record, or a sequence number
    the manifest promised but nothing carries — is appended to the
    quarantine store with provenance.  ``quarantine=None`` scans without
    writing anything (used by ``repro verify``).
    """
    path = Path(path)
    store: QuarantineStore | None = None
    if isinstance(quarantine, QuarantineStore):
        store = quarantine
    elif quarantine is not None:
        store = QuarantineStore(quarantine)

    report = RecoveryReport(path=str(path))
    try:
        expected = read_manifest(path)
    except ManifestError as error:
        expected = None
        report.manifest_error = error
    if expected is not None:
        report.manifest_lines = expected.lines

    bad: list[tuple[int, str, bytes]] = []  # (line_number, reason, raw)
    kept: list[tuple[int | None, SessionRecord]] = []  # (seq, record)
    data = path.read_bytes()
    raw_lines = _split_lines(data)
    report.physical_lines = len(raw_lines)
    for line_number, raw in enumerate(raw_lines, start=1):
        try:
            parsed = _parse_line(raw)
        except SessionLogError as error:
            bad.append((line_number, error.reason or "malformed-record", raw))
            continue
        if parsed is None:
            report.blank_lines += 1
            continue
        kept.append(parsed)
        report.parsed += 1

    records, seqs = _order_records(kept, report)
    if expected is not None:
        seen = {seq for seq, _ in kept if seq is not None}
        report.missing_seqs = tuple(
            seq for seq in range(expected.lines) if seq not in seen
        )
        actual = data_manifest(data)
        report.manifest_match = (
            (actual.lines, actual.sha256) == (expected.lines, expected.sha256)
        )
    report.bad_lines = tuple((number, reason) for number, reason, _ in bad)
    report.recovered = len(records)

    if store is not None:
        for line_number, reason, raw in bad:
            store.add(path=path, line=line_number, reason=reason, raw=raw)
        for sequence in report.missing_seqs:
            store.add(
                path=path,
                line=None,
                seq=sequence,
                reason="missing-line",
                raw="",
            )
    telemetry.count("integrity.recovered_records", report.recovered)
    if report.duplicates:
        telemetry.count("integrity.recovered_duplicates", report.duplicates)
    if report.reordered:
        telemetry.count("integrity.recovered_reordered", report.reordered)
    if report.lost:
        telemetry.count("integrity.lost_records", report.lost)
    return RecoveredLog(
        records=records, report=report, quarantine=store, seqs=seqs
    )


def _order_records(
    kept: list[tuple[int | None, SessionRecord]], report: RecoveryReport
) -> tuple[list[SessionRecord], list[int]]:
    """Dedup and re-sort surviving records, updating the report.

    Returns the records and, in step with them, their sequence numbers.
    """
    if kept and all(seq is not None for seq, _ in kept):
        by_seq: dict[int, SessionRecord] = {}
        previous = -1
        for seq, record in kept:
            if seq < previous:
                report.reordered += 1
            previous = max(previous, seq)
            if seq in by_seq:
                report.duplicates += 1
            else:
                by_seq[seq] = record
        seqs = sorted(by_seq)
        return [by_seq[seq] for seq in seqs], seqs
    # Legacy lines without sequence numbers: keep file order, dedup by
    # session id (the collector's identity key).
    seen_ids: set[str] = set()
    records: list[SessionRecord] = []
    for _, record in kept:
        if record.session_id in seen_ids:
            report.duplicates += 1
            continue
        seen_ids.add(record.session_id)
        records.append(record)
    return records, list(range(len(records)))


def collector_accounting_for_recovery(report: RecoveryReport) -> dict[str, int]:
    """Conservation-law counters for a collector restored from a recovery.

    Treats the written file as the generation boundary: every line the
    writer meant to persist is either recovered, deduplicated, or
    quarantined (each lost record once, as :attr:`RecoveryReport.lost`
    counts it), so

        generated == stored + deduplicated + quarantined

    balances by construction.
    """
    counters = dict.fromkeys(PERSISTED_COUNTERS, 0)
    counters["generated"] = report.recovered + report.duplicates + report.lost
    counters["deduplicated"] = report.duplicates
    counters["quarantined"] = report.lost
    return counters


__all__ = [
    "Manifest",
    "RecoveredLog",
    "RecoveryReport",
    "SCHEMA_VERSION",
    "SEQ_KEY",
    "SessionLogError",
    "collector_accounting_for_recovery",
    "dataset_digest",
    "read_jsonl",
    "record_bytes",
    "recover_jsonl",
    "sealed_dict",
    "session_from_dict",
    "session_to_dict",
    "write_jsonl",
]
