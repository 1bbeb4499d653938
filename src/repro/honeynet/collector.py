"""Central collector: every closed session is forwarded here.

Models the honeynet's collection pipeline (paper section 3.2).  The
collector is the terminal store of the delivery path: it applies the
fleet-wide outage windows (the paper's 48-hour October 2023 maintenance
window by default), drops records from sensors the fault plan has taken
down, deduplicates at-least-once redeliveries by session id, and keeps
the dead letters of records the transport could not deliver.

Every record offered to the collection boundary ends in exactly one
bucket, so the accounting identity

    generated == stored + dropped_outage + dropped_sensor_down
                 + dead_lettered + deduplicated + quarantined + shed

holds at all times (:func:`conservation_imbalance`, stated once for the
live collector and for ``repro verify``'s checkpoint audit).  The
``quarantined`` bucket is always zero during simulation — it exists for
collectors restored from recovered artifacts
(:func:`repro.honeynet.io.recover_jsonl`), where records lost to
on-disk corruption must still balance the books.  The ``shed`` bucket
is filled only when an admission gate is attached
(:mod:`repro.overload.admission`); ``admitted`` and ``deferred`` are
*event* counters along the way to a terminal bucket, not buckets
themselves — a deferred record is admitted when the day drains, so it
still ends up stored (or deduplicated).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro import telemetry
from repro.faults.plan import PAPER_OUTAGE, OutageWindow
from repro.honeypot.session import SessionRecord
from repro.overload.admission import ADMIT, DEFER, AdmissionController
from repro.util.timeutils import epoch_ordinal

#: Drop reasons understood by :meth:`Collector.record_drop`.
DROP_OUTAGE = "outage"
DROP_SENSOR_DOWN = "sensor_down"

#: The counters a checkpoint always persists, in the order it writes them.
PERSISTED_COUNTERS = (
    "generated",
    "dropped_outage",
    "dropped_sensor_down",
    "retried",
    "deduplicated",
    "dead_lettered",
    "quarantined",
)

#: The admission-gate counters: persisted only when non-zero, so a run
#: with no gate (or one that never engaged) writes the same checkpoint
#: bytes as before the gate existed.
GATE_COUNTERS = ("admitted", "shed", "deferred")


def conservation_imbalance(accounting: dict[str, int]) -> str | None:
    """Check the conservation law over an accounting dict.

    ``accounting`` has the keys of :meth:`Collector.accounting` (absent
    keys count as zero).  Returns a description of the imbalance, or
    ``None`` when every generated record sits in exactly one terminal
    bucket.
    """
    generated = accounting.get("generated", 0)
    accounted = sum(
        accounting.get(bucket, 0)
        for bucket in (
            "stored",
            "dropped_outage",
            "dropped_sensor_down",
            "dead_lettered",
            "deduplicated",
            "quarantined",
            "shed",
        )
    )
    if generated == accounted:
        return None
    return (
        f"generated {generated} != {accounted} accounted "
        f"(stored + dropped + dead-lettered + deduplicated + "
        f"quarantined + shed)"
    )


@dataclass
class Collector:
    """Accepts session records and applies collection-side effects."""

    outages: tuple[OutageWindow, ...] = (PAPER_OUTAGE,)
    #: ``(honeypot_id, day ordinal)`` pairs on which the sensor was down
    #: (from the compiled :class:`~repro.faults.plan.FaultPlan`).
    sensor_down_days: frozenset[tuple[str, int]] = frozenset()
    sessions: list[SessionRecord] = field(default_factory=list)
    dead_letters: list[SessionRecord] = field(default_factory=list)
    generated: int = 0
    dropped_outage: int = 0
    dropped_sensor_down: int = 0
    retried: int = 0
    deduplicated: int = 0
    dead_lettered: int = 0
    #: Records lost to on-disk corruption, accounted by the quarantine
    #: store (always 0 for live simulation runs).
    quarantined: int = 0
    #: Admission-gate counters (all 0 when no gate is attached).
    #: ``shed`` is a terminal bucket in the conservation law; ``admitted``
    #: and ``deferred`` count gate events on the way to other buckets.
    admitted: int = 0
    shed: int = 0
    deferred: int = 0
    #: The bounded-ingest gate, or None for an unbounded collector.
    admission: AdmissionController | None = None
    #: Outage windows precomputed as inclusive ordinal ranges so the
    #: per-record check is integer comparisons, not date construction.
    _outage_ordinals: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, default=()
    )
    _seen_ids: set[str] = field(init=False, repr=False, default_factory=set)
    #: Telemetry snapshot: counter values already emitted to the active
    #: registry.  The hot path records nothing; :meth:`flush_telemetry`
    #: emits the *delta* since this snapshot at batch (day) granularity.
    _flushed: dict[str, int] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        self._outage_ordinals = tuple(
            window.ordinals() for window in self.outages
        )
        self._seen_ids = {record.session_id for record in self.sessions}
        # Pre-seeded state was never offered through this collector's
        # hot path, so it must not be re-counted on the first flush.
        self._flushed = dict(self._telemetry_state())

    # ------------------------------------------------------------------
    # delivery primitives (used by the transport channel)
    # ------------------------------------------------------------------
    def drop_reason(self, record: SessionRecord) -> str | None:
        """Why this record cannot be collected right now, if at all."""
        ordinal = epoch_ordinal(record.start)
        for start, end in self._outage_ordinals:
            if start <= ordinal <= end:
                return DROP_OUTAGE
        if (record.honeypot_id, ordinal) in self.sensor_down_days:
            return DROP_SENSOR_DOWN
        return None

    def record_drop(self, reason: str) -> None:
        """Account one dropped record under ``reason``."""
        if reason == DROP_OUTAGE:
            self.dropped_outage += 1
        elif reason == DROP_SENSOR_DOWN:
            self.dropped_sensor_down += 1
        else:
            raise ValueError(f"unknown drop reason: {reason!r}")

    def accept(self, record: SessionRecord) -> bool:
        """Store a delivered record; False if it is a duplicate."""
        if record.session_id in self._seen_ids:
            self.deduplicated += 1
            return False
        self._seen_ids.add(record.session_id)
        self.sessions.append(record)
        return True

    def admit(self, record: SessionRecord) -> bool:
        """Offer a delivered record to the admission gate, then store it.

        With no gate attached this is exactly :meth:`accept`.  With a
        gate, the verdict routes the record: admitted records are
        stored (or deduplicated), deferred records wait in the gate's
        queues until :meth:`end_of_day`, shed records are dropped and
        accounted in the ``shed`` bucket.  Returns True iff stored now.
        """
        if self.admission is None:
            return self.accept(record)
        verdict = self.admission.offer(record)
        if verdict == ADMIT:
            self.admitted += 1
            return self.accept(record)
        if verdict == DEFER:
            self.deferred += 1
            return False
        self.shed += 1
        return False

    def end_of_day(self) -> int:
        """Close a simulated day: drain the admission gate, flush telemetry.

        Every deferred record is admitted (deferral delays, it never
        loses), and the gate's daily budget resets; without a gate the
        drain is skipped entirely — a flood-off day boundary performs
        zero admission bookkeeping.  Day boundaries are also where the
        hot path's accounting reaches the telemetry registry
        (:meth:`flush_telemetry`): counters are batch-granular by
        design, so per-record instrumentation costs nothing.  Returns
        how many drained records were stored.
        """
        stored = 0
        if self.admission is not None:
            for record in self.admission.drain():
                self.admitted += 1
                if self.accept(record):
                    stored += 1
        self.flush_telemetry()
        return stored

    def dead_letter(self, record: SessionRecord) -> None:
        """Park a record the transport permanently failed to deliver."""
        self.dead_letters.append(record)
        self.dead_lettered += 1

    # ------------------------------------------------------------------
    # the lossless delivery path (paper profile / direct ingestion)
    # ------------------------------------------------------------------
    def ingest(self, record: SessionRecord) -> bool:
        """Deliver one record losslessly; returns True iff stored."""
        self.generated += 1
        reason = self.drop_reason(record)
        if reason is not None:
            self.record_drop(reason)
            return False
        return self.admit(record)

    # ------------------------------------------------------------------
    # batch-granularity telemetry
    # ------------------------------------------------------------------
    def _telemetry_state(self) -> tuple[tuple[str, int], ...]:
        """Current counter values under their metric names.

        ``overload.*`` names appear only while an admission gate is
        attached, so flood-off runs never emit (or even name) overload
        metrics — the differential suite pins that.
        """
        state = (
            ("collector.offered", self.generated),
            ("collector.stored", len(self.sessions)),
            ("collector.deduplicated", self.deduplicated),
            ("collector.dropped.outage", self.dropped_outage),
            ("collector.dropped.sensor_down", self.dropped_sensor_down),
            ("collector.dead_lettered", self.dead_lettered),
        )
        if self.admission is None:
            return state
        return state + (
            ("overload.admitted", self.admitted),
            ("overload.shed", self.shed),
            ("overload.deferred", self.deferred),
        )

    def flush_telemetry(self) -> None:
        """Emit counter deltas since the last flush to the registry
        (:func:`repro.telemetry.flush_counts`)."""
        telemetry.flush_counts(self._flushed, self._telemetry_state())

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Total records lost to outages or sensor downtime."""
        return self.dropped_outage + self.dropped_sensor_down

    def accounting(self) -> dict[str, int]:
        """Every counter plus the stored total, for reports and tests.

        ``stored`` follows ``generated`` (:data:`PERSISTED_COUNTERS`
        starts with it); ``repro faults`` prints them in this order."""
        accounting = {"generated": self.generated, "stored": len(self.sessions)}
        for key in PERSISTED_COUNTERS[1:] + GATE_COUNTERS:
            accounting[key] = getattr(self, key)
        return accounting

    def accounting_balanced(self) -> bool:
        """Check the conservation law over the collection boundary."""
        return conservation_imbalance(self.accounting()) is None

    def restore(
        self,
        sessions: Iterable[SessionRecord],
        dead_letters: Iterable[SessionRecord],
        counters: dict[str, int],
    ) -> None:
        """Reset state from a checkpoint (see :mod:`repro.faults.checkpoint`)."""
        self.sessions = list(sessions)
        self.dead_letters = list(dead_letters)
        self._seen_ids = {record.session_id for record in self.sessions}
        for key in PERSISTED_COUNTERS + GATE_COUNTERS:
            setattr(self, key, counters.get(key, 0))
        # Restored counters were already emitted by the run that wrote
        # the checkpoint; re-seed the snapshot so they aren't re-counted.
        self._flushed = dict(self._telemetry_state())
