"""Content checksums that make persisted artifacts self-verifying.

Every serialized session record and every checkpoint section carries a
truncated SHA-256 of its canonical JSON form.  Corruption that still
parses as JSON (a flipped digit, a shuffled field) is caught by the
checksum instead of silently skewing the dataset digest.

The record checksum lives in the ``"sha"`` key of the envelope dict and
covers every *other* key, so verification is independent of which extra
keys (``"seq"``, …) the envelope carries.  Writers seal a record from
its directly composed canonical bytes
(:func:`repro.honeynet.io.sealed_dict`); :func:`payload_checksum` over
the parsed envelope is the definition those bytes must meet, and the
read side verifies against it.
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


def text_checksum(canonical: str) -> str:
    """The checksum of one canonical JSON text: its SHA-256, truncated."""
    return sha256_hex(canonical)[:CHECKSUM_LENGTH]


def payload_checksum(payload: dict) -> str:
    """Checksum of ``payload`` with its own ``"sha"`` key excluded."""
    body = {
        key: value
        for key, value in payload.items()
        if key != RECORD_CHECKSUM_KEY
    }
    return text_checksum(canonical_json(body))


def verify_seal(payload: dict) -> bool:
    """True iff ``payload`` carries a checksum and it matches."""
    expected = payload.get(RECORD_CHECKSUM_KEY)
    return expected is not None and payload_checksum(payload) == expected


def section_checksum(section: Any) -> str:
    """Checksum for one checkpoint section (any JSON-serializable value)."""
    return text_checksum(canonical_json(section))
