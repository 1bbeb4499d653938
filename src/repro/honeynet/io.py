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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro import telemetry
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
    seal,
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

#: Envelope keys that are persistence metadata, not record content.
ENVELOPE_KEYS = (SEQ_KEY, RECORD_CHECKSUM_KEY)


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


def record_bytes(session: SessionRecord) -> bytes:
    """A record's canonical bytes: :func:`session_to_dict` as sorted-key,
    compact JSON.  Every hash of a record's content starts here."""
    return canonical_json(session_to_dict(session)).encode("utf-8")


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
        envelope = session_to_dict(session)
        envelope[SEQ_KEY] = sequence
        lines.append(json.dumps(seal(envelope)))
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
    lost = report.lost
    return {
        "generated": report.recovered + report.duplicates + lost,
        "dropped_outage": 0,
        "dropped_sensor_down": 0,
        "retried": 0,
        "deduplicated": report.duplicates,
        "dead_lettered": 0,
        "quarantined": lost,
    }


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
    "session_from_dict",
    "session_to_dict",
    "write_jsonl",
]
