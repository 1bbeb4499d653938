"""Building, exporting and rebuilding indexes over artifact trees.

An *indexed artifact tree* is a directory holding one or more JSONL
session shards (each with its sidecar manifest) plus one
``index.sqlite`` summarizing every record in them.  The shards are the
ground truth; the index is derived and disposable.  :func:`recover_tree`
reads the shards and :func:`merge_shards` holds the one rule that
merges them; :func:`rebuild_index` reconstructs the index from that
reading — the ``repro verify --rebuild-index`` repair path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

from repro import telemetry
from repro.honeynet.io import RecoveredLog, recover_jsonl, write_jsonl
from repro.honeypot.session import SessionRecord
from repro.integrity.quarantine import QUARANTINE_DIR_NAME
from repro.store.base import INDEX_FILE_NAME, IndexRow, StoreMeta, index_contents
from repro.store.sqlite import SqliteStore


def index_path_for(root: Path | str) -> Path:
    """The conventional index location for an artifact tree."""
    return Path(root) / INDEX_FILE_NAME


def shard_paths(root: Path | str) -> list[Path]:
    """The JSONL shards an index at ``root`` covers, in name order.

    Only regular files directly under ``root`` count; the quarantine
    store's own JSONL index is provenance, not session data.
    """
    root = Path(root)
    return sorted(
        path
        for path in root.glob("*.jsonl")
        if QUARANTINE_DIR_NAME not in path.parts and path.is_file()
    )


@dataclass(frozen=True)
class RecoveredTree:
    """Everything an artifact tree's shards can still prove."""

    #: Shard name order; each session id once, at its first occurrence.
    records: list[SessionRecord]
    #: In step with ``records``: the shard name and line ``seq`` each
    #: record was read from.
    origins: list[tuple[str, int]]
    #: Records the shards lost, each counted once.
    lost: int

    @cached_property
    def index(self) -> tuple[list[IndexRow], StoreMeta]:
        """The rows and meta of an index rebuilt from these records, each
        row pointing at its record's line, and no config fingerprint
        (the shards cannot prove one) — one pass that classifies and
        hashes every record, so built on first use only."""
        return index_contents(self.records, self.origins)


def merge_shards(shards: Iterable[tuple[str, RecoveredLog]]) -> RecoveredTree:
    """Merge ``(shard name, recovery)`` pairs, in name order: a session
    id seen twice, in one shard or across shards, keeps its first record."""
    records: list[SessionRecord] = []
    origins: list[tuple[str, int]] = []
    seen: set[str] = set()
    lost = 0
    for name, recovered in shards:
        lost += recovered.report.lost
        for seq, record in zip(recovered.seqs, recovered.records):
            if record.session_id not in seen:
                seen.add(record.session_id)
                records.append(record)
                origins.append((name, seq))
    return RecoveredTree(records, origins, lost)


def recover_tree(root: Path | str) -> RecoveredTree:
    """Recover every record the tree's shards can still prove: each
    shard recovered leniently and scan-only (no quarantine writes), then
    :func:`merge_shards`.  The rebuild and the scan fallback see exactly
    this; ``repro verify`` merges the recoveries its shard audit made.
    """
    return merge_shards(
        (shard.name, recover_jsonl(shard)) for shard in shard_paths(root)
    )


def export_indexed_tree(
    sessions: Sequence[SessionRecord],
    root: Path | str,
    *,
    shard_name: str = "sessions.jsonl",
    config=None,
    corruptor=None,
    index_corruptor=None,
) -> Path:
    """Write a complete indexed artifact tree for ``sessions``.

    Writes the JSONL shard (with manifest) and builds ``index.sqlite``
    from the same *clean* record sequence — like the manifest, the index
    records what the writer meant, before any injected storage-path
    corruption (``corruptor`` damages the shard, ``index_corruptor``
    damages the index; both model faults *after* a faithful write).
    Returns the index path.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    write_jsonl(sessions, root / shard_name, corruptor=corruptor)
    fingerprint = ""
    if config is not None:
        from repro.faults.checkpoint import config_fingerprint

        fingerprint = config_fingerprint(config)
    index_path = index_path_for(root)
    origins = [(shard_name, seq) for seq in range(len(sessions))]
    rows, meta = index_contents(sessions, origins, fingerprint)
    SqliteStore.build(index_path, rows, meta).close()
    if index_corruptor is not None:
        index_corruptor.maybe_corrupt(index_path, key=0)
    return index_path


def rebuild_index(root: Path | str) -> tuple[Path, int]:
    """Reconstruct a tree's index from its verified shards.

    The repair path behind ``repro verify --rebuild-index``: recover
    the tree (:func:`recover_tree`) and atomically replace whatever
    index file was there (corrupt, stale or absent).  The rebuilt meta's
    content digest matches the recovered records exactly, so the next
    audit passes iff the rebuild is faithful.  Returns the index path
    and the indexed record count.
    """
    root = Path(root)
    if not shard_paths(root):
        raise FileNotFoundError(f"no JSONL shards under {root} to rebuild from")
    index_path = index_path_for(root)
    with telemetry.span("store.rebuild"):
        tree = recover_tree(root)
        # A corrupt index may not be openable at all; remove leftovers
        # (including WAL sidecars) so the atomic build starts clean.
        for leftover in (
            index_path.with_name(index_path.name + "-wal"),
            index_path.with_name(index_path.name + "-shm"),
        ):
            leftover.unlink(missing_ok=True)
        rows, meta = tree.index
        SqliteStore.build(index_path, rows, meta).close()
    telemetry.count("store.rebuilds")
    telemetry.count("store.rebuild.rows", len(rows))
    return index_path, len(rows)
