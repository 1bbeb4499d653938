"""Versioned immutable snapshots: what the query service serves.

The stream engine publishes one :class:`Snapshot` per dirty day
boundary; the service answers every request against the newest one.  A
snapshot is immutable and versioned, so a response can name exactly
which state it describes (``version``), a stale-serving breaker can
say *how* stale (the version it fell back to), and the read-through
cache can key entries on the snapshot version and the normalized query
without any invalidation protocol — a new version simply stops hitting
the old keys.

Identity: a live-published snapshot carries a *rolling* content digest
(SHA-256 over each folded record's canonical content hash, in arrival
order) maintained incrementally by the publisher — O(new records) per
boundary, never a full-dataset rescan.  A snapshot built from an
indexed artifact tree (:meth:`Snapshot.from_store`) instead carries the
store's dataset digest from ``store_meta``.  Both uniquely identify the
content; they are different encodings, so digests are comparable
within a creation path, aggregates across both (the differential suite
checks live-vs-store aggregate equality).

The publisher is a pure observer: it reads the collector, never
mutates it, so simulation digests, accounting and checkpoint bytes are
byte-identical with a publisher attached or absent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import date
from typing import Callable, Mapping, Sequence

from repro import telemetry
from repro.store.base import record_facts, snapshot_aggregates
from repro.stream.breaker import Transition
from repro.stream.supervisor import MODE_FULL


@dataclass(frozen=True)
class Snapshot:
    """One immutable published state of the evolving corpus."""

    version: int
    day: str  #: last day folded in, ISO format
    day_ordinal: int
    content_digest: str
    sessions: int
    by_day: Mapping[str, int]
    by_label: Mapping[str, int]
    accounting: Mapping[str, int]
    mode: str = MODE_FULL
    #: Degraded-mode timeline up to this boundary: the ingest breaker's
    #: openings and closings, as transition dicts.
    timeline: tuple[dict, ...] = ()
    #: Latest rolling-ledger audit verdict (a finished run folded by
    #: :func:`publish_result` carries its last), or None for a
    #: store-built snapshot.
    ledger: Mapping[str, object] | None = None

    def status_payload(self) -> dict:
        """The status endpoint's view: identity + health, no aggregates."""
        return {
            "version": self.version,
            "day": self.day,
            "sessions": self.sessions,
            "content_digest": self.content_digest,
            "mode": self.mode,
            "timeline": [dict(t) for t in self.timeline],
            "ledger": dict(self.ledger) if self.ledger is not None else None,
        }

    def aggregate_payload(self) -> dict:
        """The precomputed per-day / per-label headline aggregates."""
        return {
            "sessions": self.sessions,
            "by_day": dict(self.by_day),
            "by_label": dict(self.by_label),
            "accounting": dict(self.accounting),
        }

    @classmethod
    def from_store(cls, store) -> "Snapshot":
        """A version-1 snapshot describing an indexed artifact tree."""
        aggregates = snapshot_aggregates(store)
        by_day = aggregates["by_day"]
        last_day = max(by_day) if by_day else date(1970, 1, 1).isoformat()
        return cls(
            version=1,
            day=last_day,
            day_ordinal=date.fromisoformat(last_day).toordinal(),
            content_digest=aggregates["content_digest"],
            sessions=aggregates["sessions"],
            by_day=by_day,
            by_label=aggregates["by_label"],
            accounting={"stored": aggregates["sessions"]},
        )


class SnapshotPublisher:
    """Folds collector state into versioned snapshots at day boundaries.

    The engine hands over a dirty flag implicitly: the publisher tracks
    how many collector sessions it has folded, and a boundary that
    brought no new sessions, no mode/timeline change and no new ledger
    verdict re-publishes nothing — the previous version stays current
    and ``skipped_clean`` counts the no-op (quiet days cost nothing).
    """

    def __init__(self) -> None:
        self._latest: Snapshot | None = None
        self.published = 0
        self.skipped_clean = 0
        self._folded = 0
        self._hasher = hashlib.sha256()
        self._by_day: dict[str, int] = {}
        self._by_label: dict[str, int] = {}
        #: Hooks fired with each new snapshot (e.g. a day-boundary load
        #: burst in the soak leg).  Must not mutate simulation state.
        self.on_publish: list[Callable[[Snapshot], None]] = []

    @property
    def latest(self) -> Snapshot | None:
        return self._latest

    @property
    def version(self) -> int:
        return self._latest.version if self._latest is not None else 0

    def _fold(self, sessions) -> None:
        """Fold not-yet-seen sessions into the rolling aggregates, each
        with the facts its index row would carry."""
        by_day, by_label = self._by_day, self._by_label
        update = self._hasher.update
        for _, day, label, digest in record_facts(sessions):
            by_day[day] = by_day.get(day, 0) + 1
            by_label[label] = by_label.get(label, 0) + 1
            update(digest.encode("ascii"))

    def publish_day(
        self,
        collector,
        day: date,
        *,
        mode: str = MODE_FULL,
        transitions: Sequence[Transition] = (),
        ledger: Mapping[str, object] | None = None,
    ) -> Snapshot | None:
        """Publish the boundary snapshot for ``day``, or skip if clean.

        ``mode`` and ``transitions`` are the stream's degraded mode and
        its timeline so far, ``ledger`` the latest ledger verdict.
        """
        sessions = collector.sessions
        fresh = sessions[self._folded:]
        timeline = tuple(t.as_dict() for t in transitions)
        previous = self._latest
        dirty = (
            previous is None
            or bool(fresh)
            or previous.mode != mode
            or previous.timeline != timeline
            or previous.ledger != ledger
        )
        if not dirty:
            self.skipped_clean += 1
            telemetry.count("service.snapshot.skipped_clean")
            return None
        self._fold(fresh)
        self._folded = len(sessions)
        snapshot = Snapshot(
            version=self.published + 1,
            day=day.isoformat(),
            day_ordinal=day.toordinal(),
            content_digest=self._hasher.hexdigest(),
            sessions=len(sessions),
            by_day=dict(self._by_day),
            by_label=dict(self._by_label),
            accounting=dict(collector.accounting()),
            mode=mode,
            timeline=timeline,
            ledger=ledger,
        )
        self.published += 1
        self._latest = snapshot
        telemetry.count("service.snapshot.published")
        for hook in self.on_publish:
            hook(snapshot)
        return snapshot


def publish_result(publisher: SnapshotPublisher, result) -> Snapshot:
    """Publish one final snapshot of a finished run.

    For a run that had no publisher attached (a ``run_simulation``
    result, or one loaded back from a checkpoint), a service serves the
    end state: one snapshot folded from the final collector, published
    at the run's last day with the run's final mode, mode timeline and
    ledger verdict (``result.stream``).
    """
    report = result.stream
    snapshot = publisher.publish_day(
        result.collector,
        result.config.end,
        mode=report.mode,
        transitions=report.transitions,
        ledger=report.ledger_verdict,
    )
    if snapshot is None:  # nothing new since the last publish
        snapshot = publisher.latest
    assert snapshot is not None
    return snapshot
