"""The definitions a record's composed bytes and checksums are held to.

``repro.honeynet.io`` composes a record's canonical bytes, a shard
line's checksum and a checkpoint record's checksum directly from the
record's fields.  Each is defined through the canonical encoder: the
bytes as ``canonical_json(session_to_dict(record))``, each checksum as
``payload_checksum`` of the payload it seals.  :func:`codec_mismatches`
names every composed form that differs from its definition.

``scripts/soak.py`` imports this module too, so it holds no test.
"""

from __future__ import annotations

from repro.honeynet.io import SEQ_KEY, record_bytes, sealed_dict, session_to_dict
from repro.honeypot.session import SessionRecord
from repro.integrity.checksums import (
    RECORD_CHECKSUM_KEY,
    canonical_json,
    payload_checksum,
)


def codec_mismatches(record: SessionRecord, seq: int) -> list[str]:
    """The composed forms of ``record`` that differ from their
    definitions: its canonical ``bytes``, its checksum as line ``seq``
    of an export (``line``) and its checksum in a checkpoint
    (``checkpoint``)."""
    payload = session_to_dict(record)
    checksums = {
        "line": payload_checksum({**payload, SEQ_KEY: seq}),
        "checkpoint": payload_checksum(payload),
    }
    wrong = []
    if record_bytes(record) != canonical_json(payload).encode("utf-8"):
        wrong.append("bytes")
    if sealed_dict(record, seq)[RECORD_CHECKSUM_KEY] != checksums["line"]:
        wrong.append("line")
    if sealed_dict(record)[RECORD_CHECKSUM_KEY] != checksums["checkpoint"]:
        wrong.append("checkpoint")
    return wrong
