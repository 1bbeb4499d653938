"""Indexed artifact store: queryable persistence over JSONL ground truth.

JSONL shards with manifests (:mod:`repro.honeynet.io`) are crash-safe
but unqueryable at scale — answering "sessions from this IP on that
day" means parsing every line ever written.  This package adds a
SQLite index (:class:`~repro.store.sqlite.SqliteStore`) over ``(day,
sensor_id, client_ip, session_hash, protocol, rule_label)``, built at
export time, so the paper's per-IP / per-day / per-category lookups
become index queries instead of full scans.

The store is robustness-first, because a second persistence surface is
a second thing that can corrupt or desync:

* the JSONL shards remain the only ground truth — the index is a
  derived, disposable accelerator;
* ``store_meta`` carries the schema version, config fingerprint and a
  content digest, so a stale or foreign index is detected before use
  (:class:`~repro.store.base.StaleIndexError`);
* the first build is atomic (temp file + fsync + rename) and reads run
  in WAL mode, so a killed build never leaves a half-written index;
* every query consumer degrades to a full scan of the shards when the
  index is absent or damaged (:mod:`repro.store.resilient`), answering
  with the same SQL over an in-memory copy of the recovered rows and
  counted loudly on the ``store.fallback`` telemetry counter — never a
  crash, never a wrong answer;
* one rule merges a tree's shards
  (:func:`~repro.store.builder.merge_shards`): the fallback, ``repro
  verify``'s cross-check of index rows against the shard records, and
  ``repro verify --rebuild-index``'s reconstruction of a damaged index
  (:func:`~repro.store.builder.rebuild_index`) all see the same records.

Layering: ``store`` composes ``analysis`` (rule labels), ``honeynet``
(shard IO) and ``integrity`` — it sits at the ``experiments`` layer;
nothing below it may import it except lazily (``repro.integrity.verify``
imports it inside the index-audit pass).
"""

from __future__ import annotations

from repro.store.base import (
    INDEX_FILE_NAME,
    STORE_SCHEMA_VERSION,
    IndexRow,
    StaleIndexError,
    StoreError,
    StoreMeta,
    snapshot_aggregates,
)
from repro.store.builder import (
    RecoveredTree,
    export_indexed_tree,
    index_path_for,
    rebuild_index,
    recover_tree,
)
from repro.store.resilient import ResilientArtifactStore
from repro.store.sqlite import SqliteStore

__all__ = [
    "INDEX_FILE_NAME",
    "IndexRow",
    "RecoveredTree",
    "ResilientArtifactStore",
    "STORE_SCHEMA_VERSION",
    "SqliteStore",
    "StaleIndexError",
    "StoreError",
    "StoreMeta",
    "export_indexed_tree",
    "index_path_for",
    "rebuild_index",
    "recover_tree",
    "snapshot_aggregates",
]
