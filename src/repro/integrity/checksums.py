"""Content checksums that make persisted artifacts self-verifying.

Every serialized session record and every checkpoint section carries a
truncated SHA-256 of its canonical JSON form.  Corruption that still
parses as JSON (a flipped digit, a shuffled field) is caught by the
checksum instead of silently skewing the dataset digest.

The record checksum lives in the ``"sha"`` key of the envelope dict and
covers every *other* key, so sealing is idempotent and verification is
independent of which extra keys (``"seq"``, …) the envelope carries.
"""

from __future__ import annotations

import json
from typing import Any

from repro.util.hashing import sha256_hex

#: Envelope key holding the record checksum.
RECORD_CHECKSUM_KEY = "sha"

#: Hex digits kept from the SHA-256 — 64 bits, plenty for corruption
#: detection while keeping the per-line overhead small.
CHECKSUM_LENGTH = 16


#: The one sorted-key, compact JSON encoder: built once, not per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """The stable serialization every checksum and content hash is
    computed over."""
    return _CANONICAL.encode(payload)


def payload_checksum(payload: dict) -> str:
    """Checksum of ``payload`` with its own ``"sha"`` key excluded."""
    body = {
        key: value
        for key, value in payload.items()
        if key != RECORD_CHECKSUM_KEY
    }
    return sha256_hex(canonical_json(body))[:CHECKSUM_LENGTH]


def seal(payload: dict) -> dict:
    """Add the content checksum to ``payload`` (in place) and return it."""
    payload[RECORD_CHECKSUM_KEY] = payload_checksum(payload)
    return payload


def verify_seal(payload: dict) -> bool:
    """True iff ``payload`` carries a checksum and it matches."""
    expected = payload.get(RECORD_CHECKSUM_KEY)
    return expected is not None and payload_checksum(payload) == expected


def section_checksum(section: Any) -> str:
    """Checksum for one checkpoint section (any JSON-serializable value)."""
    return sha256_hex(canonical_json(section))[:CHECKSUM_LENGTH]
