"""The row schema every index holds, and the errors a store raises.

A store answers the lookups the paper's longitudinal analyses are built
from — per-day, per-sensor, per-client-IP, per-rule-label session
counts and id sets — without parsing the JSONL shards.  One
:class:`IndexRow` is written per session at export time; the row
carries a content hash of the record it summarizes, so an index row and
its ground-truth record can be cross-checked artifact by artifact
(``repro verify``'s index-audit pass).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Iterator, Sequence

from repro.honeypot.session import SessionRecord
from repro.util.timeutils import epoch_date, epoch_ordinal

#: Version of the index schema (tables, columns, meta keys).  Bumped on
#: any incompatible change; an index with a different version is never
#: queried — consumers fall back to the scan path and ``repro verify
#: --rebuild-index`` rewrites it.
STORE_SCHEMA_VERSION = 1

#: Conventional index file name inside an artifact tree.
INDEX_FILE_NAME = "index.sqlite"

#: The queryable columns, in schema order (``filters`` keys).
INDEX_COLUMNS = (
    "day",
    "sensor_id",
    "client_ip",
    "session_hash",
    "protocol",
    "rule_label",
)

#: Columns ``distinct`` / ``count_by`` may group on: the index columns
#: plus each row's session id and source shard.
GROUPABLE = INDEX_COLUMNS + ("session_id", "source")


class StoreError(RuntimeError):
    """Raised when an index cannot be opened, read or trusted.

    Carries the offending ``path`` and a stable ``reason`` slug so the
    fallback layer and ``repro verify`` can report *why* without parsing
    the message.  Every backend failure mode — unreadable file, failed
    integrity check, unsupported schema, missing meta — surfaces as this
    (or a subclass), never as a raw backend exception.
    """

    def __init__(
        self, message: str, *, path: object = None, reason: str | None = None
    ) -> None:
        prefix = f"{path}: " if path is not None else ""
        super().__init__(f"{prefix}{message}")
        self.path = str(path) if path is not None else None
        self.reason = reason


class StaleIndexError(StoreError):
    """The index is intact but belongs to different data or config.

    Raised when ``store_meta``'s config fingerprint or content digest
    does not match what the caller expects: querying it would return
    *wrong* answers, which is worse than no answers — consumers must
    fall back to the scan path and rebuild.
    """


@dataclass(frozen=True)
class StoreMeta:
    """The self-description every index carries (``store_meta`` table)."""

    schema_version: int
    #: :func:`repro.faults.checkpoint.config_fingerprint` of the run
    #: that produced the indexed dataset, or ``""`` when unknown (e.g.
    #: an index rebuilt from shards alone).
    config_fingerprint: str
    #: Dataset digest over the indexed records —
    #: :func:`repro.honeynet.io.dataset_digest` of exactly the sessions
    #: the rows summarize, in database order.
    content_digest: str
    record_count: int


@dataclass(frozen=True)
class IndexRow:
    """One session's queryable summary (one row per record)."""

    session_id: str
    day: str  #: UTC calendar day of the session start, ISO format
    sensor_id: str  #: the honeypot that recorded the session
    client_ip: str
    session_hash: str  #: sha256 of the record's canonical bytes
    protocol: str
    rule_label: str  #: Table-1 category (first-match-wins, 59 rules)
    source: str  #: shard file name the ground-truth record lives in
    seq: int  #: the record's sequence number within that shard


def normalize_filters(filters: dict) -> dict[str, str]:
    """Validate filter names and coerce values to their column strings."""
    cleaned: dict[str, str] = {}
    for name, value in filters.items():
        if value is None:
            continue
        if name not in INDEX_COLUMNS:
            known = ", ".join(INDEX_COLUMNS)
            raise ValueError(f"unknown index column {name!r} (known: {known})")
        if isinstance(value, date):
            value = value.isoformat()
        elif hasattr(value, "value"):  # Protocol and friends
            value = value.value
        cleaned[name] = str(value)
    return cleaned


def snapshot_aggregates(store) -> dict:
    """The headline aggregates a service snapshot is built from.

    One ``count_by`` per axis (the paper's per-day and per-label
    figures are exactly these groupings), plus the meta identity —
    everything :class:`repro.service.Snapshot` needs to describe an
    indexed tree, in one round trip per axis.
    """
    meta = store.meta()
    return {
        "sessions": meta.record_count,
        "content_digest": meta.content_digest,
        "by_day": store.count_by("day"),
        "by_label": store.count_by("rule_label"),
    }


def record_facts(
    sessions: Iterable[SessionRecord],
) -> Iterator[tuple[bytes, str, str, str]]:
    """Each record's canonical bytes (:func:`repro.honeynet.io.record_bytes`)
    with the facts its index row carries: its UTC start day (ISO), its
    Table-1 rule label and its content hash, the SHA-256 hex of those
    bytes.  Index rows and the live snapshot's fold both take their
    facts from here.  A pass looks the classifier up once and renders
    each day once, keyed by its ordinal (:func:`epoch_date` is the day
    of that ordinal)."""
    from repro.analysis.classify import DEFAULT_CLASSIFIER
    from repro.honeynet.io import record_bytes

    classify = DEFAULT_CLASSIFIER.classify
    days: dict[int, str] = {}
    for session in sessions:
        data = record_bytes(session)
        ordinal = epoch_ordinal(session.start)
        day = days.get(ordinal)
        if day is None:
            day = days[ordinal] = epoch_date(session.start).isoformat()
        yield data, day, classify(session), hashlib.sha256(data).hexdigest()


def index_contents(
    records: Sequence[SessionRecord],
    origins: Sequence[tuple[str, int]],
    config_fingerprint: str = "",
) -> tuple[list[IndexRow], StoreMeta]:
    """The rows and meta of an index over ``records``.

    ``origins`` holds each record's ``(source, seq)``: the shard and
    line its row points at.  One pass in database order
    (:func:`~repro.honeynet.database.database_order`) encodes each
    record once, and those bytes give both its row's facts and the
    meta's content digest; the rows come out in that order.
    """
    from repro.honeynet.database import database_order
    from repro.honeynet.io import dataset_digest

    rows: list[IndexRow] = []

    def row(
        entry: tuple[SessionRecord, tuple[str, int]],
        facts: tuple[bytes, str, str, str],
    ) -> bytes:
        record, (source, seq) = entry
        data, day, label, digest = facts
        rows.append(
            IndexRow(
                session_id=record.session_id,
                day=day,
                sensor_id=record.honeypot_id,
                client_ip=record.client_ip,
                session_hash=digest,
                protocol=record.protocol.value,
                rule_label=label,
                source=source,
                seq=seq,
            )
        )
        return data

    entries = sorted(
        zip(records, origins), key=lambda entry: database_order(entry[0])
    )
    content_digest = dataset_digest(
        map(row, entries, record_facts(record for record, _ in entries))
    )
    meta = StoreMeta(
        schema_version=STORE_SCHEMA_VERSION,
        config_fingerprint=config_fingerprint,
        content_digest=content_digest,
        record_count=len(rows),
    )
    return rows, meta
