"""The SQLite index: WAL reads, single-writer atomic builds.

The index is one SQLite file with two tables:

* ``sessions`` — one :class:`~repro.store.base.IndexRow` per record,
  with a covering b-tree index per queryable column;
* ``store_meta`` — key/value self-description
  (:class:`~repro.store.base.StoreMeta`): schema version, config
  fingerprint, content digest, record count.

Writes happen exactly once, at build time, in a single transaction
against a temp file that is fsync'ed and renamed into place — the same
atomic-write discipline as every other artifact
(:mod:`repro.util.fsio`), so a killed build leaves either the previous
index intact or the new one complete.  The file is switched to WAL
journal mode before the rename so subsequent readers never block each
other.  After the build the store is append-closed: there is no update
path, only rebuild-from-shards
(:func:`repro.store.builder.rebuild_index`).  The scan fallback queries
an in-memory copy (:meth:`SqliteStore.in_memory`) with the same SQL.

Every backend failure (unreadable file, failed ``quick_check``,
missing or foreign meta) is normalized to
:class:`~repro.store.base.StoreError` /
:class:`~repro.store.base.StaleIndexError` — callers never see raw
``sqlite3`` exceptions.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Sequence

from repro import telemetry
from repro.store.base import (
    INDEX_COLUMNS,
    STORE_SCHEMA_VERSION,
    IndexRow,
    StaleIndexError,
    StoreError,
    StoreMeta,
    normalize_filters,
)

#: Columns ``distinct`` / ``count_by`` may group on.
_GROUPABLE = INDEX_COLUMNS + ("session_id", "source")

_SCHEMA = f"""
CREATE TABLE store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE sessions (
    session_id   TEXT PRIMARY KEY,
    day          TEXT NOT NULL,
    sensor_id    TEXT NOT NULL,
    client_ip    TEXT NOT NULL,
    session_hash TEXT NOT NULL,
    protocol     TEXT NOT NULL,
    rule_label   TEXT NOT NULL,
    source       TEXT NOT NULL,
    seq          INTEGER NOT NULL
);
{chr(10).join(
    f"CREATE INDEX idx_sessions_{column} ON sessions ({column});"
    for column in INDEX_COLUMNS
)}
"""


def _fsync_path(path: Path) -> None:
    descriptor = os.open(path, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _populate(
    connection: sqlite3.Connection, rows: Sequence[IndexRow], meta: StoreMeta
) -> None:
    """Create the schema, then insert the rows and meta in one transaction."""
    connection.executescript(_SCHEMA)
    with connection:
        connection.executemany(
            "INSERT INTO sessions VALUES (?,?,?,?,?,?,?,?,?)",
            (
                (
                    row.session_id, row.day, row.sensor_id,
                    row.client_ip, row.session_hash, row.protocol,
                    row.rule_label, row.source, row.seq,
                )
                for row in rows
            ),
        )
        connection.executemany(
            "INSERT INTO store_meta VALUES (?, ?)",
            [
                ("schema_version", str(meta.schema_version)),
                ("config_fingerprint", meta.config_fingerprint),
                ("content_digest", meta.content_digest),
                ("record_count", str(meta.record_count)),
            ],
        )


class SqliteStore:
    """A read-only view over one built index.

    ``filters`` accepted by the query methods are equality constraints
    on :data:`~repro.store.base.INDEX_COLUMNS` (``day`` also accepts a
    :class:`~datetime.date`, ``protocol`` an enum value).  Every failure
    raises :class:`StoreError` — callers that must not crash hold a
    :class:`~repro.store.resilient.ResilientArtifactStore` instead.
    """

    def __init__(self, path: Path, connection: sqlite3.Connection) -> None:
        self.path = path
        self._connection = connection
        self._meta: StoreMeta | None = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.close()
        return False

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls, path: Path | str, rows: Sequence[IndexRow], meta: StoreMeta
    ) -> "SqliteStore":
        """Build the index atomically at ``path`` and open it.

        The whole build is one transaction against ``<path>.tmp``; only
        a complete, WAL-mode file is ever renamed over ``path``.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        temp.unlink(missing_ok=True)
        with telemetry.span("store.build"):
            connection = sqlite3.connect(temp)
            try:
                _populate(connection, rows, meta)
                # Persist WAL journal mode in the file header so readers
                # of the final file get concurrent non-blocking reads.
                connection.execute("PRAGMA journal_mode=WAL")
            finally:
                connection.close()
            _fsync_path(temp)
            os.replace(temp, path)
        telemetry.count("store.builds")
        telemetry.count("store.build.rows", len(rows))
        return cls.open(path)

    @classmethod
    def in_memory(
        cls, rows: Sequence[IndexRow], meta: StoreMeta
    ) -> "SqliteStore":
        """An index over ``rows`` held in memory: the scan fallback's
        query engine, with the same schema and SQL as a file index."""
        connection = sqlite3.connect(":memory:")
        _populate(connection, rows, meta)
        return cls(Path(":memory:"), connection)

    @classmethod
    def open(
        cls,
        path: Path | str,
        *,
        expected_fingerprint: str | None = None,
        expected_digest: str | None = None,
        read_only: bool = False,
    ) -> "SqliteStore":
        """Open and vet an existing index before first use.

        Runs SQLite's ``quick_check``, requires a supported schema
        version, and — when the caller knows what the index *should*
        describe — compares the stored config fingerprint and content
        digest, raising :class:`StaleIndexError` on mismatch.  An index
        that fails any gate is never queried.

        ``read_only=True`` opens through a ``mode=ro`` URI: the
        connection can never write, so any number of concurrent readers
        (the query service's snapshot queries, a live dashboard) share
        the file with WAL semantics while a rebuild publishes a new
        index via temp+rename next to them — an open reader keeps
        answering from the inode it holds.
        """
        path = Path(path)
        if not path.exists():
            raise StoreError("no such index", path=path, reason="absent")
        try:
            if read_only:
                connection = sqlite3.connect(
                    f"file:{path}?mode=ro", uri=True
                )
            else:
                connection = sqlite3.connect(path)
        except sqlite3.Error as error:  # pragma: no cover - connect rarely fails
            raise StoreError(
                f"cannot open index: {error}", path=path, reason="unreadable"
            ) from error
        store = cls(path, connection)
        # Every gate that fails closes the connection in one place.
        try:
            verdict = connection.execute("PRAGMA quick_check").fetchone()
            if verdict is None or verdict[0] != "ok":
                raise StoreError(
                    f"integrity check failed: {verdict and verdict[0]}",
                    path=path,
                    reason="integrity-check-failed",
                )
            meta = store.meta()
            if meta.schema_version != STORE_SCHEMA_VERSION:
                raise StoreError(
                    f"unsupported index schema version {meta.schema_version} "
                    f"(supported: {STORE_SCHEMA_VERSION})",
                    path=path,
                    reason="unsupported-schema",
                )
            # Self-check: the meta row count pins what the build inserted,
            # so silently dropped rows (a healthy-looking database that
            # desynced from its shards) are caught before the first query.
            actual_rows = connection.execute(
                "SELECT COUNT(*) FROM sessions"
            ).fetchone()[0]
            if actual_rows != meta.record_count:
                raise StoreError(
                    f"index holds {actual_rows} rows but store_meta promises "
                    f"{meta.record_count} (rows dropped or foreign)",
                    path=path,
                    reason="row-count-mismatch",
                )
            if (
                expected_fingerprint is not None
                and meta.config_fingerprint != expected_fingerprint
            ):
                raise StaleIndexError(
                    "index was built for a different configuration",
                    path=path,
                    reason="fingerprint-mismatch",
                )
            if expected_digest is not None and meta.content_digest != expected_digest:
                raise StaleIndexError(
                    "index content digest does not match the expected dataset",
                    path=path,
                    reason="digest-mismatch",
                )
        except sqlite3.Error as error:
            connection.close()
            raise StoreError(
                f"unreadable index: {error}", path=path, reason="unreadable"
            ) from error
        except StoreError:
            connection.close()
            raise
        telemetry.count("store.opens")
        return store

    # -- queries -------------------------------------------------------

    def _where(self, filters: dict) -> tuple[str, list[str]]:
        cleaned = normalize_filters(filters)
        if not cleaned:
            return "", []
        clause = " WHERE " + " AND ".join(
            f"{column} = ?" for column in sorted(cleaned)
        )
        return clause, [cleaned[column] for column in sorted(cleaned)]

    def _execute(self, query: str, parameters: list[str]):
        telemetry.count("store.queries")
        try:
            return self._connection.execute(query, parameters)
        except sqlite3.Error as error:
            raise StoreError(
                f"query failed: {error}", path=self.path, reason="query-failed"
            ) from error

    def meta(self) -> StoreMeta:
        """The index's self-description."""
        if self._meta is None:
            try:
                pairs = dict(
                    self._connection.execute(
                        "SELECT key, value FROM store_meta"
                    ).fetchall()
                )
                self._meta = StoreMeta(
                    schema_version=int(pairs["schema_version"]),
                    config_fingerprint=pairs["config_fingerprint"],
                    content_digest=pairs["content_digest"],
                    record_count=int(pairs["record_count"]),
                )
            except (sqlite3.Error, KeyError, ValueError) as error:
                raise StoreError(
                    f"missing or corrupt store_meta: {error}",
                    path=self.path,
                    reason="meta-unreadable",
                ) from error
        return self._meta

    def count(self, **filters: object) -> int:
        """Number of indexed sessions matching ``filters``."""
        clause, parameters = self._where(filters)
        cursor = self._execute(
            f"SELECT COUNT(*) FROM sessions{clause}", parameters
        )
        return int(cursor.fetchone()[0])

    def session_ids(self, **filters: object) -> list[str]:
        """Matching session ids, sorted (deterministic)."""
        clause, parameters = self._where(filters)
        cursor = self._execute(
            f"SELECT session_id FROM sessions{clause} ORDER BY session_id",
            parameters,
        )
        return [row[0] for row in cursor.fetchall()]

    def rows(self, **filters: object) -> list[IndexRow]:
        """Matching rows, sorted by ``(source, seq)``."""
        clause, parameters = self._where(filters)
        cursor = self._execute(
            "SELECT session_id, day, sensor_id, client_ip, session_hash, "
            f"protocol, rule_label, source, seq FROM sessions{clause} "
            "ORDER BY source, seq",
            parameters,
        )
        return [IndexRow(*row) for row in cursor.fetchall()]

    def distinct(self, column: str, **filters: object) -> list[str]:
        """Sorted distinct values of ``column`` among matching rows."""
        self._check_column(column)
        clause, parameters = self._where(filters)
        cursor = self._execute(
            f"SELECT DISTINCT {column} FROM sessions{clause} ORDER BY {column}",
            parameters,
        )
        return [row[0] for row in cursor.fetchall()]

    def count_by(self, column: str, **filters: object) -> dict[str, int]:
        """Matching-session counts grouped by ``column``."""
        self._check_column(column)
        clause, parameters = self._where(filters)
        cursor = self._execute(
            f"SELECT {column}, COUNT(*) FROM sessions{clause} "
            f"GROUP BY {column} ORDER BY {column}",
            parameters,
        )
        return {value: count for value, count in cursor.fetchall()}

    def _check_column(self, column: str) -> None:
        if column not in _GROUPABLE:
            known = ", ".join(_GROUPABLE)
            raise ValueError(f"unknown index column {column!r} (known: {known})")

    def close(self) -> None:
        self._connection.close()
