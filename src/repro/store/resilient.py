"""Scan-fallback wrapper: index answers when possible, never a crash.

:class:`ResilientArtifactStore` is the store every query consumer
actually holds.  It answers from ``index.sqlite`` while the index is
present, intact and matches expectations; the moment any store
operation fails — absent file, failed ``quick_check``, stale
fingerprint or digest, a query error mid-flight — it degrades to the
ground truth: the shards are recovered once
(:func:`repro.store.builder.recover_tree`) and their rows loaded into
an in-memory copy of the index (:meth:`SqliteStore.in_memory`).  The
switch is one-way for the lifetime of the wrapper, counted loudly on
the ``store.fallback`` telemetry counter, and invisible to callers
except through :attr:`source`.

Because the fallback's rows come from the same recovery that rebuilds
an index, and are queried by the same SQL, a fallback answer is never
*different* from a healthy-index answer over the same surviving
records — degraded means slower, not wrong.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, TypeVar

from repro import telemetry
from repro.store.base import IndexRow, StoreError, StoreMeta
from repro.store.builder import RecoveredTree, index_path_for, recover_tree
from repro.store.sqlite import SqliteStore

_T = TypeVar("_T")


class ResilientArtifactStore:
    """:class:`SqliteStore`'s queries over an artifact tree, never failing.

    ``expected_fingerprint`` / ``expected_digest`` are forwarded to
    :meth:`SqliteStore.open`'s staleness gates; a mismatch triggers the
    same fallback as corruption (a stale index is treated as damage,
    because querying it would be *wrong*, not just slow).
    """

    def __init__(
        self,
        root: Path | str,
        *,
        expected_fingerprint: str | None = None,
        expected_digest: str | None = None,
    ) -> None:
        self.root = Path(root)
        self._expected_fingerprint = expected_fingerprint
        self._expected_digest = expected_digest
        #: The index file, or after fallback the in-memory copy.
        self._store: SqliteStore | None = None
        self._tree: RecoveredTree | None = None
        self.fallback_reason: str | None = None

    # -- mode management ----------------------------------------------

    @property
    def source(self) -> str:
        """``"index"`` while the index is serving, ``"scan"`` after
        fallback, ``"unopened"`` before the first query."""
        if self.fallback_reason is not None:
            return "scan"
        if self._store is not None:
            return "index"
        return "unopened"

    def _answering(self) -> SqliteStore:
        if self._store is None and self.fallback_reason is None:
            try:
                self._store = SqliteStore.open(
                    index_path_for(self.root),
                    expected_fingerprint=self._expected_fingerprint,
                    expected_digest=self._expected_digest,
                )
            except StoreError as error:
                self._fall_back(error)
        if self._store is None:
            self._store = SqliteStore.in_memory(*self._recovered().index)
        return self._store

    def _fall_back(self, error: StoreError) -> None:
        self.close()
        self.fallback_reason = error.reason or "unknown"
        telemetry.count("store.fallback")
        telemetry.count(f"store.fallback.{self.fallback_reason}")

    def _recovered(self) -> RecoveredTree:
        """Recover the shards once."""
        if self._tree is None:
            with telemetry.span("store.scan"):
                self._tree = recover_tree(self.root)
        return self._tree

    def _ask(self, query: Callable[[SqliteStore], _T]) -> _T:
        try:
            return query(self._answering())
        except StoreError as error:
            self._fall_back(error)
        return query(self._answering())

    # -- the queries ----------------------------------------------------

    def meta(self) -> StoreMeta:
        return self._ask(lambda store: store.meta())

    def count(self, **filters: object) -> int:
        return self._ask(lambda store: store.count(**filters))

    def session_ids(self, **filters: object) -> list[str]:
        return self._ask(lambda store: store.session_ids(**filters))

    def rows(self, **filters: object) -> list[IndexRow]:
        return self._ask(lambda store: store.rows(**filters))

    def distinct(self, column: str, **filters: object) -> list[str]:
        return self._ask(lambda store: store.distinct(column, **filters))

    def count_by(self, column: str, **filters: object) -> dict[str, int]:
        return self._ask(lambda store: store.count_by(column, **filters))

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None

    # -- extras --------------------------------------------------------

    def records(self):
        """The surviving ground-truth records (recovered once, cached)."""
        return list(self._recovered().records)

    def database(self):
        """A :class:`~repro.honeynet.database.SessionDatabase` over the
        surviving ground-truth records — the scan-path dataset loader."""
        from repro.honeynet.database import SessionDatabase

        return SessionDatabase(self.records())
