"""Sidecar manifests for JSONL artifacts: line count + rolling digest.

:func:`repro.honeynet.io.write_jsonl` writes ``<file>.manifest.json``
next to every export.  The manifest pins the exact byte content the
writer produced (each line terminated by ``\\n``, digested in order),
so a reader — or ``repro verify`` — can tell a pristine file from one
that was truncated, mangled, duplicated or reordered in transit without
parsing a single record.

Files without a sidecar (hand-written fixtures, foreign datasets) are
still readable; the manifest is evidence, not a gate.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.util.fsio import atomic_write_text

#: Manifest format version.
MANIFEST_VERSION = 1

#: Appended to the data file's full name (``x.jsonl.manifest.json``).
MANIFEST_SUFFIX = ".manifest.json"


class ManifestError(ValueError):
    """Raised when a sidecar manifest exists but cannot be parsed."""


@dataclass(frozen=True)
class Manifest:
    """What the writer promised: how many lines, hashing to what."""

    lines: int
    sha256: str
    v: int = MANIFEST_VERSION


def manifest_path(data_path: Path | str) -> Path:
    """Where the sidecar for ``data_path`` lives."""
    data_path = Path(data_path)
    return data_path.with_name(data_path.name + MANIFEST_SUFFIX)


def is_manifest(path: Path | str) -> bool:
    return str(path).endswith(MANIFEST_SUFFIX)


def build_manifest(lines: Iterable[str]) -> Manifest:
    """Manifest for the given logical lines (no trailing newlines)."""
    digest = hashlib.sha256()
    count = 0
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
        count += 1
    return Manifest(lines=count, sha256=digest.hexdigest())


def data_manifest(data: bytes) -> Manifest:
    """Manifest of a file's raw bytes."""
    lines = data.count(b"\n")
    if data and not data.endswith(b"\n"):
        lines += 1  # truncated final line still occupies a line slot
    return Manifest(lines=lines, sha256=hashlib.sha256(data).hexdigest())


def file_manifest(path: Path | str) -> Manifest:
    """Manifest of the bytes actually on disk at ``path``."""
    return data_manifest(Path(path).read_bytes())


def write_manifest(data_path: Path | str, manifest: Manifest) -> Path:
    """Atomically write the sidecar for ``data_path``; returns its path."""
    sidecar = manifest_path(data_path)
    document = {"v": manifest.v, "lines": manifest.lines, "sha256": manifest.sha256}
    atomic_write_text(sidecar, json.dumps(document, sort_keys=True) + "\n")
    return sidecar


def read_manifest(data_path: Path | str) -> Manifest | None:
    """Load the sidecar for ``data_path``.

    Returns ``None`` when no sidecar exists; raises
    :class:`ManifestError` when one exists but is unreadable — callers
    decide whether that is fatal (strict reads) or merely noted
    (recovery and audits).
    """
    sidecar = manifest_path(data_path)
    try:
        raw = sidecar.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None
    except OSError as error:
        raise ManifestError(f"unreadable manifest {sidecar}: {error}") from error
    try:
        document = json.loads(raw)
        return Manifest(
            lines=int(document["lines"]),
            sha256=str(document["sha256"]),
            v=int(document["v"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        raise ManifestError(f"malformed manifest {sidecar}: {error}") from error
