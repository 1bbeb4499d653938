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

import json
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

from repro.honeypot.session import SessionRecord
from repro.util.hashing import sha256_hex
from repro.util.timeutils import epoch_date

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
    #: :meth:`repro.honeynet.database.SessionDatabase.digest` of exactly
    #: the sessions the rows summarize.
    content_digest: str
    record_count: int


@dataclass(frozen=True)
class IndexRow:
    """One session's queryable summary (one row per record)."""

    session_id: str
    day: str  #: UTC calendar day of the session start, ISO format
    sensor_id: str  #: the honeypot that recorded the session
    client_ip: str
    session_hash: str  #: sha256 of the record's canonical JSON
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


def record_hash(session: SessionRecord) -> str:
    """Content hash of one record — exactly the dataset digest's
    per-record hashing (canonical sorted-key JSON of the session dict),
    so a row/record mismatch means the *content* diverged, not the
    serialization."""
    from repro.honeynet.io import session_to_dict

    return sha256_hex(
        json.dumps(
            session_to_dict(session), sort_keys=True, separators=(",", ":")
        )
    )


def content_digest(sessions: Iterable[SessionRecord]) -> str:
    """The dataset digest of ``sessions`` (database order), as stored in
    ``store_meta`` — equal to ``SessionDatabase(sessions).digest()`` so
    index meta and in-memory database can be compared directly."""
    from repro.honeynet.database import SessionDatabase

    return SessionDatabase(list(sessions)).digest()


def index_row(session: SessionRecord, source: str, seq: int) -> IndexRow:
    """The index row for one record living at ``(source, seq)``.

    Rule labels come from the Table-1 classifier — computed once here at
    export time instead of per analysis run.
    """
    from repro.analysis.classify import DEFAULT_CLASSIFIER

    return IndexRow(
        session_id=session.session_id,
        day=epoch_date(session.start).isoformat(),
        sensor_id=session.honeypot_id,
        client_ip=session.client_ip,
        session_hash=record_hash(session),
        protocol=session.protocol.value,
        rule_label=DEFAULT_CLASSIFIER.classify(session),
        source=source,
        seq=seq,
    )


def index_rows(
    sessions: Sequence[SessionRecord], source: str
) -> list[IndexRow]:
    """The index rows for one shard's clean record sequence, as written:
    ``seq`` is each record's position, which is its line's ``seq``."""
    return [
        index_row(session, source, seq)
        for seq, session in enumerate(sessions)
    ]
