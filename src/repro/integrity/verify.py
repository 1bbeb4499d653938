"""``repro verify``: audit an artifact tree's integrity end to end.

Walks a dataset/checkpoint tree and checks every artifact against its
own evidence: sidecar manifests and per-line checksums for JSONL
exports, section and record checksums for checkpoint generations, and
the quarantine store's provenance entries.  The audit's contract is the
conservation law extended to disk: every discrepancy must either be
*recoverable* (duplicated or reordered lines the sequence numbers
repair, a corrupt checkpoint generation with a valid older one) or
*explained* (quarantined with provenance).  Anything else is an
unexplained discrepancy and fails the audit — ``repro verify`` exits
non-zero.  Each artifact is read from disk once per audit.

Import note: :mod:`repro.honeynet.io`, :mod:`repro.honeynet.collector`
and :mod:`repro.faults.checkpoint` are imported lazily inside the audit
functions — they sit above this package, and the first and last import
its siblings at module level.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro import telemetry
from repro.integrity.manifest import is_manifest
from repro.integrity.quarantine import (
    QUARANTINE_DIR_NAME,
    QuarantineEntry,
    QuarantineStore,
)

if TYPE_CHECKING:  # pragma: no cover - imported lazily, see the module note
    from repro.honeynet.io import RecoveredLog

#: Trailing generation suffix of rotated checkpoint files (``.1``, ``.2``).
_GENERATION_SUFFIX = re.compile(r"\.(\d+)$")

#: The first bytes of every checkpoint generation: the writer puts
#: ``v`` and ``fingerprint`` first.  (A shard line starts with ``v`` and
#: ``session_id``; a ``verify --json`` report with ``findings``.)
_CHECKPOINT_HEAD = re.compile(rb'\{"v": \d+, "fingerprint": "')

#: Bytes read from a file to recognise a checkpoint generation.
_SNIFF_BYTES = 64

#: Version of the audit report schema (``repro verify --json``).  Bumped
#: whenever the JSON shape changes incompatibly, so downstream tooling
#: can evolve against a stable field instead of sniffing keys.
#: Version 2 added ``schema_version`` itself and index findings.
AUDIT_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Finding:
    """One audited artifact and its verdict."""

    path: str  #: relative to the audit root
    kind: str  #: ``dataset`` | ``checkpoint`` | ``quarantine`` | ``index`` | ``temp``
    #: ``ok`` — pristine; ``recovered`` — damaged but losslessly
    #: repairable; ``quarantined`` — lossy but fully accounted for;
    #: ``failed`` — unexplained discrepancy.
    status: str
    detail: str

    @property
    def explained(self) -> bool:
        return self.status != "failed"


@dataclass
class IntegrityAudit:
    """The outcome of one tree walk."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    quarantine_entries: int = 0
    records_verified: int = 0
    records_lost: int = 0
    #: Records the admission gate shed, summed over the newest valid
    #: generation of every checkpoint group (an *explained* loss:
    #: shedding is accounted, like outage gaps, not damage).
    records_shed: int = 0

    @property
    def ok(self) -> bool:
        return all(finding.explained for finding in self.findings)

    @property
    def index_damaged(self) -> bool:
        """True when any index artifact failed its audit."""
        return any(
            f.kind == "index" and not f.explained for f in self.findings
        )

    @property
    def data_ok(self) -> bool:
        """True when everything *except* index artifacts is explained.

        An audit with ``data_ok and index_damaged`` found only derived
        damage: the ground truth is intact and ``--rebuild-index``
        restores a clean audit.  Until then consumers fall back to the
        shard scan only where ``SqliteStore.open`` refuses the index; an
        index that opens keeps answering (each index finding says
        which).
        """
        return all(
            f.explained for f in self.findings if f.kind != "index"
        )

    def unexplained(self) -> list[Finding]:
        return [f for f in self.findings if not f.explained]

    def render(self) -> str:
        """Human-readable audit report."""
        lines = [f"integrity audit of {self.root}"]
        marks = {"ok": "✓", "recovered": "~", "quarantined": "!", "failed": "✗"}
        for finding in self.findings:
            mark = marks.get(finding.status, "?")
            lines.append(
                f"  {mark} [{finding.kind}] {finding.path}: {finding.detail}"
            )
        if not self.findings:
            lines.append("  (no auditable artifacts found)")
        lines.append(
            f"{len(self.findings)} artifacts, "
            f"{self.records_verified} records verified, "
            f"{self.records_lost} lost (quarantine holds "
            f"{self.quarantine_entries} entries)"
        )
        if self.records_shed:
            lines.append(
                f"{self.records_shed} records shed by admission control "
                "(accounted degraded-mode loss, not damage)"
            )
        lines.append("PASS" if self.ok else
                     f"FAIL: {len(self.unexplained())} unexplained discrepancies")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": AUDIT_SCHEMA_VERSION,
                "root": self.root,
                "ok": self.ok,
                "index_damaged": self.index_damaged,
                "records_verified": self.records_verified,
                "records_lost": self.records_lost,
                "records_shed": self.records_shed,
                "quarantine_entries": self.quarantine_entries,
                "findings": [
                    {
                        "path": f.path,
                        "kind": f.kind,
                        "status": f.status,
                        "detail": f.detail,
                    }
                    for f in self.findings
                ],
            },
            indent=2,
            sort_keys=True,
        )


def _generation_base(path: Path) -> Path:
    """``path`` without its generation suffix (``ck.json.2`` → ``ck.json``)."""
    match = _GENERATION_SUFFIX.search(path.name)
    return path.with_name(path.name[: match.start()]) if match else path


def _is_checkpoint(path: Path) -> bool:
    """Is ``path`` a checkpoint generation, by its name or its first bytes?

    ``--checkpoint`` takes any name, so the name rule (``*.ckpt*``,
    ``ckpt*``) only covers the conventional ones; the rest are
    recognised by the writer's fixed first bytes.
    """
    name = _generation_base(path).name
    if ".ckpt" in name or name.startswith("ckpt"):
        return True
    try:
        with path.open("rb") as handle:
            head = handle.read(_SNIFF_BYTES)
    except OSError:
        return False
    return _CHECKPOINT_HEAD.match(head) is not None


def _generation_rank(path: Path) -> int:
    match = _GENERATION_SUFFIX.search(path.name)
    return int(match.group(1)) if match else 0


def audit_tree(
    root: Path | str,
    quarantine: Path | str | QuarantineStore | None = None,
) -> IntegrityAudit:
    """Audit every artifact under ``root`` (a directory or one file).

    ``quarantine`` overrides store discovery (default: the
    ``quarantine/`` directory under ``root``, when present).
    """
    from repro.honeynet.io import recover_jsonl

    root = Path(root)
    base = root if root.is_dir() else root.parent
    if isinstance(quarantine, QuarantineStore):
        store = quarantine
    elif quarantine is not None:
        store = QuarantineStore(quarantine)
    else:
        store = QuarantineStore.discover(base)

    # The quarantine index is read once; every lost line is then looked
    # up by (source, line) or (source, seq).
    entries: list[QuarantineEntry] = []
    quarantine_error: Exception | None = None
    if store is not None:
        try:
            entries = store.entries()
        except (json.JSONDecodeError, TypeError, ValueError) as error:
            quarantine_error = error
    covered_lines = {(entry.source, entry.line) for entry in entries}
    covered_seqs = {(entry.source, entry.seq) for entry in entries}

    @cache  # one recovery per shard: its own audit and its index's
    def recover(shard: Path) -> RecoveredLog | OSError:
        try:
            return recover_jsonl(shard)  # scan-only: no store writes
        except OSError as error:
            return error

    audit = IntegrityAudit(root=str(root))
    files = [
        path
        for path in (
            sorted(p for p in root.rglob("*") if p.is_file())
            if root.is_dir()
            else [root]
        )
        # the quarantine store is audited separately below
        if QUARANTINE_DIR_NAME not in path.relative_to(base).parts[:-1]
    ]
    # A generation group is every file whose base some recognised
    # generation shares, so a head file damaged past recognition still
    # joins its group through its ``.1``/``.2`` siblings.
    checkpoint_bases = {
        _generation_base(path)
        for path in files
        if not path.name.endswith(".tmp")
        and not is_manifest(path)
        and _is_checkpoint(path)
    }

    checkpoint_groups: dict[Path, list[Path]] = {}
    for path in files:
        relative = str(path.relative_to(base))
        if path.name.endswith(".tmp"):
            audit.findings.append(
                Finding(
                    path=relative,
                    kind="temp",
                    status="recovered",
                    detail="leftover temp file (interrupted atomic write; "
                    "the primary artifact is unaffected)",
                )
            )
            continue
        if is_manifest(path):
            data_file = path.with_name(path.name[: -len(".manifest.json")])
            if not data_file.exists():
                audit.findings.append(
                    Finding(
                        path=relative,
                        kind="dataset",
                        status="failed",
                        detail="manifest without a data file",
                    )
                )
            continue
        checkpoint_base = _generation_base(path)
        if checkpoint_base in checkpoint_bases:
            checkpoint_groups.setdefault(checkpoint_base, []).append(path)
            continue
        if path.suffix == ".jsonl":
            _audit_jsonl(recover(path), relative, covered_lines, covered_seqs, audit)
            continue
        if path.suffix == ".sqlite":
            _audit_index(path, relative, recover, audit)

    for checkpoint_base, members in sorted(checkpoint_groups.items()):
        _audit_checkpoint_group(checkpoint_base, members, base, audit)

    if store is not None:
        _audit_quarantine(store, entries, quarantine_error, base, audit)

    telemetry.count("integrity.verify.runs")
    telemetry.count("integrity.verify.artifacts", len(audit.findings))
    if not audit.ok:
        telemetry.count("integrity.verify.failures")
    return audit


def _audit_jsonl(
    recovered: RecoveredLog | OSError,
    relative: str,
    covered_lines: set[tuple[str, int | None]],
    covered_seqs: set[tuple[str, int | None]],
    audit: IntegrityAudit,
) -> None:
    if isinstance(recovered, OSError):
        audit.findings.append(
            Finding(relative, "dataset", "failed", f"unreadable: {recovered}")
        )
        return
    report = recovered.report
    audit.records_verified += report.recovered
    audit.records_lost += report.lost

    pristine = (
        not report.lost
        and not report.duplicates
        and not report.reordered
        and report.manifest_match is not False
        and report.manifest_error is None
    )
    if pristine:
        suffix = (
            "verified against manifest"
            if report.manifest_lines is not None
            else "parsed clean (no manifest)"
        )
        audit.findings.append(
            Finding(
                relative, "dataset", "ok", f"{report.recovered} records, {suffix}"
            )
        )
        return
    if report.manifest_error is not None:
        status = "recovered" if report.lost == 0 else "failed"
        audit.findings.append(
            Finding(
                relative,
                "dataset",
                status,
                f"manifest unreadable; data file {'parsed clean' if status == 'recovered' else 'is also damaged'}",
            )
        )
        return
    if (
        report.manifest_lines is not None
        and report.recovered > report.manifest_lines
    ):
        # More records than the writer ever produced: an insertion, not
        # damage — nothing in the fault model creates records, so this
        # is never recoverable or quarantinable.
        audit.findings.append(
            Finding(
                relative,
                "dataset",
                "failed",
                f"{report.recovered} records recovered but the manifest "
                f"promises only {report.manifest_lines} — "
                "unexplained extra records",
            )
        )
        return
    if not report.bad_lines and not report.missing_seqs:
        audit.findings.append(
            Finding(
                relative,
                "dataset",
                "recovered",
                f"{report.recovered} records recovered losslessly "
                f"({report.duplicates} duplicates dropped, "
                f"{report.reordered} lines re-ordered)",
            )
        )
        return
    source = Path(report.path).name
    covered = all(
        (source, line) in covered_lines for line, _ in report.bad_lines
    ) and all((source, seq) in covered_seqs for seq in report.missing_seqs)
    if covered:
        audit.findings.append(
            Finding(
                relative,
                "dataset",
                "quarantined",
                f"{report.recovered} records recovered; {report.lost} lost "
                f"({report.quarantined} corrupt lines, {report.missing} "
                "missing) — all quarantined with provenance",
            )
        )
    else:
        audit.findings.append(
            Finding(
                relative,
                "dataset",
                "failed",
                f"{report.lost} records lost without quarantine coverage "
                f"({report.quarantined} corrupt lines, "
                f"{report.missing} missing)",
            )
        )


def _audit_index(
    path: Path,
    relative: str,
    recover: Callable[[Path], RecoveredLog | OSError],
    audit: IntegrityAudit,
) -> None:
    """Cross-check an ``index.sqlite`` against its shard ground truth:
    the shards beside it, as ``recover`` read them, merged by
    :func:`repro.store.builder.merge_shards`.

    The index is derived data, so a failed index finding never means
    data loss — it means the accelerator is unusable or lying.  Verdicts:

    * ``ok`` — every index row equals its recovered shard record's row
      in every field, nothing is missing, and the stored meta agrees;
    * ``quarantined`` — the index holds rows for records its shards
      demonstrably *lost*, every record of an unreadable shard included
      (the index, like the manifest, records what the writer meant —
      shard damage is the explained discrepancy);
    * ``failed`` — the index is unopenable, desynced (rows missing or
      differing in any field), carries foreign rows, or self-inconsistent
      meta.  Repairable with ``repro verify --rebuild-index``.  Each
      finding's hint says what consumers do until then, as
      :class:`~repro.store.ResilientArtifactStore` does it: fall back to
      the shard scan when ``SqliteStore.open`` refuses the index (or a
      read of it fails), keep answering from it when it opens.  Vetting
      row content at open would cost a full scan per open.
    """
    # Lazy: repro.store composes analysis/honeynet, which sit above us.
    from repro.store.builder import merge_shards, shard_paths
    from repro.store.sqlite import SqliteStore, StoreError

    repair_hint = (
        "consumers fall back to shard scan; repair with --rebuild-index"
    )
    # Damage SqliteStore.open does not vet: the index still serves.
    serving_hint = (
        "the index still opens, so consumers keep answering from it; "
        "repair with --rebuild-index"
    )
    try:
        store = SqliteStore.open(path)
    except StoreError as error:
        audit.findings.append(
            Finding(
                relative,
                "index",
                "failed",
                f"unusable index ({error.reason}) — {repair_hint}",
            )
        )
        return
    try:
        actual = {row.session_id: row for row in store.rows()}
        meta = store.meta()
    except StoreError as error:
        audit.findings.append(
            Finding(
                relative,
                "index",
                "failed",
                f"index unreadable mid-audit ({error.reason}) — {repair_hint}",
            )
        )
        return
    finally:
        store.close()

    readings = [(shard.name, recover(shard)) for shard in shard_paths(path.parent)]
    unreadable = {name for name, reading in readings if isinstance(reading, OSError)}
    tree = merge_shards(pair for pair in readings if pair[0] not in unreadable)
    lost = tree.lost + sum(row.source in unreadable for row in actual.values())
    rows, rebuilt = tree.index
    expected = {row.session_id: row for row in rows}
    missing = len(expected.keys() - actual.keys())
    extra = len(actual.keys() - expected.keys())
    mismatched = sum(
        1
        for session_id in expected.keys() & actual.keys()
        if expected[session_id] != actual[session_id]
    )
    if missing or mismatched:
        audit.findings.append(
            Finding(
                relative,
                "index",
                "failed",
                f"index desynced from shards ({missing} rows missing, "
                f"{mismatched} content-mismatched of {len(expected)} "
                f"expected) — {serving_hint}",
            )
        )
        return
    if extra:
        if extra <= lost:
            audit.findings.append(
                Finding(
                    relative,
                    "index",
                    "quarantined",
                    f"{extra} index rows outlive records the shards lost "
                    f"({lost} lost) — the index records what the writer "
                    "meant; shard damage is accounted separately",
                )
            )
            return
        audit.findings.append(
            Finding(
                relative,
                "index",
                "failed",
                f"{extra} foreign index rows with no shard record and "
                f"only {lost} shard losses to explain them — {serving_hint}",
            )
        )
        return
    if meta.record_count != len(actual):
        audit.findings.append(
            Finding(
                relative,
                "index",
                "failed",
                f"store_meta promises {meta.record_count} rows but the "
                f"index holds {len(actual)} — {repair_hint}",
            )
        )
        return
    if lost == 0 and meta.content_digest:
        if meta.content_digest != rebuilt.content_digest:
            audit.findings.append(
                Finding(
                    relative,
                    "index",
                    "failed",
                    "index content digest does not match the shard "
                    f"ground truth (stale or foreign index) — {serving_hint}",
                )
            )
            return
    audit.findings.append(
        Finding(
            relative,
            "index",
            "ok",
            f"{len(actual)} rows cross-checked against shard ground truth",
        )
    )


def _audit_checkpoint_group(
    checkpoint_base: Path, members: list[Path], base: Path, audit: IntegrityAudit
) -> None:
    from repro.faults.checkpoint import CheckpointError, read_checkpoint
    from repro.honeynet.collector import conservation_imbalance

    members = sorted(members, key=_generation_rank)
    readings: dict[Path, dict[str, int] | CheckpointError] = {}
    for member in members:
        try:
            readings[member] = read_checkpoint(member).accounting
        except CheckpointError as error:
            readings[member] = error
    newest_valid = next(
        (member for member in members if isinstance(readings[member], dict)), None
    )
    for member in members:
        relative = str(member.relative_to(base))
        reading = readings[member]
        if isinstance(reading, CheckpointError):
            if newest_valid is not None:
                audit.findings.append(
                    Finding(
                        relative,
                        "checkpoint",
                        "recovered",
                        f"corrupt generation ({reading}); resume covered by "
                        f"{newest_valid.name}",
                    )
                )
            else:
                audit.findings.append(
                    Finding(
                        relative,
                        "checkpoint",
                        "failed",
                        f"corrupt with no valid generation to fall back to "
                        f"({reading})",
                    )
                )
            continue
        if member == newest_valid:
            imbalance = conservation_imbalance(reading)
            if imbalance is not None:
                audit.findings.append(
                    Finding(
                        relative,
                        "checkpoint",
                        "failed",
                        "all checksums verified but the accounting does "
                        f"not balance: {imbalance}",
                    )
                )
                continue
            audit.records_shed += reading.get("shed", 0)
        audit.findings.append(
            Finding(relative, "checkpoint", "ok", "all checksums verified")
        )


def _audit_quarantine(
    store: QuarantineStore,
    entries: list[QuarantineEntry],
    error: Exception | None,
    base: Path,
    audit: IntegrityAudit,
) -> None:
    try:
        relative = str(store.index.relative_to(base))
    except ValueError:
        relative = str(store.index)
    if not store.index.exists():
        return
    if error is not None:
        audit.findings.append(
            Finding(
                relative, "quarantine", "failed", f"corrupt index: {error}"
            )
        )
        return
    audit.quarantine_entries = len(entries)
    reasons = Counter(entry.reason for entry in entries)
    summary = ", ".join(
        f"{count}× {reason}" for reason, count in sorted(reasons.items())
    ) or "empty"
    audit.findings.append(
        Finding(relative, "quarantine", "ok", f"{len(entries)} entries ({summary})")
    )
