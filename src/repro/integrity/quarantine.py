"""The quarantine store: provenance for every record the pipeline lost.

When a lenient read (:func:`repro.honeynet.io.recover_jsonl`) hits a
line it cannot trust — invalid JSON, failed checksum, unsupported
version, a sequence number the manifest promised but no line carries —
the line is not silently dropped: it is appended to
``quarantine/quarantine.jsonl`` with its source path, line number,
reason and raw bytes (checksummed, truncated for storage).  Quarantine
counts feed the collector's conservation law, and ``repro verify``
treats a discrepancy as *explained* exactly when the store covers it.

Entries carry no timestamps: the store's content is a pure function of
the corrupt input, so recovery runs are as deterministic as the
simulation itself.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from repro import telemetry
from repro.util.hashing import sha256_hex

#: Conventional directory name audits look for inside an artifact tree.
QUARANTINE_DIR_NAME = "quarantine"

#: Index file inside the quarantine directory.
QUARANTINE_INDEX = "quarantine.jsonl"

#: Raw-line bytes kept per entry (the checksum always covers the full line).
RAW_LIMIT = 2000


@dataclass(frozen=True)
class QuarantineEntry:
    """One quarantined line (or one line that never arrived)."""

    source: str  #: base name of the originating file
    path: str  #: full source path as given to the reader
    line: int | None  #: 1-based physical line number (None: missing line)
    seq: int | None  #: record sequence number, when recoverable
    reason: str  #: e.g. ``invalid-json``, ``checksum-mismatch``, ``missing-line``
    raw: str  #: offending raw line, truncated to :data:`RAW_LIMIT`
    raw_sha256: str  #: digest of the *full* raw line


class QuarantineStore:
    """Append-only JSONL store of quarantined lines under one directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.index = self.root / QUARANTINE_INDEX

    @classmethod
    def discover(cls, tree_root: Path | str) -> "QuarantineStore | None":
        """The store a tree at ``tree_root`` carries, if any."""
        root = Path(tree_root) / QUARANTINE_DIR_NAME
        store = cls(root)
        return store if store.index.exists() else None

    def add(
        self,
        *,
        path: Path | str,
        line: int | None,
        reason: str,
        raw: bytes | str,
        seq: int | None = None,
    ) -> QuarantineEntry:
        """Append one entry; returns it.

        ``raw`` may be the line's bytes: the checksum covers them
        exactly, and bytes that are not UTF-8 are stored escaped.
        """
        text = raw if isinstance(raw, str) else raw.decode(
            "utf-8", "backslashreplace"
        )
        entry = QuarantineEntry(
            source=Path(path).name,
            path=str(path),
            line=line,
            seq=seq,
            reason=reason,
            raw=text[:RAW_LIMIT],
            raw_sha256=sha256_hex(raw),
        )
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.index, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(asdict(entry), sort_keys=True))
            handle.write("\n")
        telemetry.count("integrity.quarantined")
        telemetry.count(f"integrity.quarantined.{reason}")
        return entry

    def entries(self) -> list[QuarantineEntry]:
        """Every entry in append order (empty when no index exists)."""
        if not self.index.exists():
            return []
        loaded: list[QuarantineEntry] = []
        with open(self.index, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                loaded.append(QuarantineEntry(**payload))
        return loaded

    def __len__(self) -> int:
        return len(self.entries())
