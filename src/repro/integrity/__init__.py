"""Data integrity: self-verifying artifacts, quarantine, and audits.

The third leg of the robustness story (after loss faults and
deterministic replay): every persisted artifact carries enough
evidence — checksums, sequence numbers, sidecar manifests — to *detect*
corruption, every unrecoverable loss is *quarantined* with provenance
instead of silently dropped, and ``repro verify`` audits a whole tree
against the extended conservation law.

* :mod:`repro.integrity.checksums` — per-record and per-section content
  checksums (truncated SHA-256 over canonical JSON).
* :mod:`repro.integrity.manifest` — sidecar manifests for JSONL exports
  (line count + rolling digest).
* :mod:`repro.integrity.quarantine` — the append-only quarantine store
  with per-line provenance (path, line number, reason).
* :mod:`repro.integrity.verify` — the tree audit behind ``repro verify``.

Layering: this package sits just above :mod:`repro.util` — it must not
import :mod:`repro.config`, :mod:`repro.faults` or
:mod:`repro.honeynet` at module level (those import *us*); the verify
module reaches them lazily.
"""

from repro.integrity.checksums import (
    RECORD_CHECKSUM_KEY,
    payload_checksum,
    seal,
    section_checksum,
    verify_seal,
)
from repro.integrity.manifest import (
    MANIFEST_SUFFIX,
    Manifest,
    ManifestError,
    build_manifest,
    file_manifest,
    manifest_path,
    read_manifest,
    write_manifest,
)
from repro.integrity.quarantine import (
    QUARANTINE_DIR_NAME,
    QUARANTINE_INDEX,
    QuarantineEntry,
    QuarantineStore,
)
from repro.integrity.verify import (
    AUDIT_SCHEMA_VERSION,
    Finding,
    IntegrityAudit,
    audit_tree,
)

__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "Finding",
    "IntegrityAudit",
    "MANIFEST_SUFFIX",
    "Manifest",
    "ManifestError",
    "QUARANTINE_DIR_NAME",
    "QUARANTINE_INDEX",
    "QuarantineEntry",
    "QuarantineStore",
    "RECORD_CHECKSUM_KEY",
    "audit_tree",
    "build_manifest",
    "file_manifest",
    "manifest_path",
    "payload_checksum",
    "read_manifest",
    "seal",
    "section_checksum",
    "verify_seal",
    "write_manifest",
]
