"""Bounded ingest: a per-day admission budget with priority-aware shedding.

The collector normally accepts every delivered record.  Under a scan
flood that assumption breaks — the paper's collector absorbed bursts of
millions of sessions per day — so the admission gate bounds what a
simulated day may store and sheds the excess *deterministically*:

* Records are classified by how much state they carry
  (:func:`record_priority`): sessions that downloaded files rank above
  sessions that ran commands, which rank above scanner no-ops.
* While the day's budget lasts, everything is admitted.
* Past the budget, no-ops are shed outright; command sessions survive a
  seeded per-session coin (keyed by session id, so the decision is
  independent of arrival order); file-event sessions are always worth
  keeping and are deferred.
* Survivors wait in a bounded per-sensor deferral queue; a full queue
  sheds.  At the end of the day the queues drain in sorted sensor-id
  order — deferral delays a record within its day, it never loses one —
  and the budget resets.

Because the budget is per *day*, admission is a pure function of
(day's records, seeded coins): a resumed run, a batch replay and a
supervised stream make identical verdicts under flood.

The supervised stream engine (:mod:`repro.stream`) additionally feeds
queue-depth backpressure into the gate via :meth:`apply_backpressure`:
high pressure halves the effective budget, critical pressure zeroes it.
Batch runs never apply pressure, so their verdicts are unchanged.

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.faults.plan import FloodFaults
from repro.util.rng import RngTree

if TYPE_CHECKING:
    from repro.honeypot.session import SessionRecord

#: Admission verdicts returned by :meth:`AdmissionController.offer`.
ADMIT = "admit"
DEFER = "defer"
SHED = "shed"

#: Backpressure levels fed in by the stream engine
#: (:mod:`repro.stream.queues` exports the matching ``LEVEL_*`` names).
PRESSURE_NONE = 0
PRESSURE_HIGH = 1
PRESSURE_CRITICAL = 2


def record_priority(record: "SessionRecord") -> int:
    """How much observable state a session carries (higher = keep).

    2 — downloaded or uploaded files (the rarest, most valuable class);
    1 — ran commands; 0 — a scanner no-op (connect, maybe fail auth,
    leave).  The shed policy keeps state-changing sessions and drops
    no-ops first, mirroring what a real collector's sampling would do.
    """
    if record.file_events:
        return 2
    if record.commands:
        return 1
    return 0


@dataclass
class AdmissionController:
    """The per-day admission gate for one collector.

    Stateful across one simulated day: :meth:`offer` hands out verdicts
    while the day runs, :meth:`drain` releases the deferral queues and
    resets the budget at the day boundary.  All shed coins come from
    ``tree.child(session id)``, so verdicts are a pure function of the
    record — never of arrival order or interleaving.
    """

    budget: int
    queue_capacity: int
    shed_probability: float
    tree: RngTree
    _admitted_today: int = field(default=0, init=False, repr=False)
    _queues: dict[str, list["SessionRecord"]] = field(
        default_factory=dict, init=False, repr=False
    )
    #: Backpressure level currently applied by the stream engine's
    #: supervision layer; 0 outside supervised streams, so the batch
    #: engines never see a shrunk budget.
    _pressure: int = field(default=PRESSURE_NONE, init=False, repr=False)

    def apply_backpressure(self, level: int) -> None:
        """Set the stream supervision backpressure level.

        ``PRESSURE_HIGH`` halves the effective daily budget;
        ``PRESSURE_CRITICAL`` zeroes it (every record faces the shed
        policy until pressure is released).  The deterministic part of
        the verdict machinery — priority classes, seeded per-session
        coins, bounded deferral queues — is untouched, so shedding
        under pressure stays a pure function of (records, coins,
        pressure schedule).
        """
        if level not in (PRESSURE_NONE, PRESSURE_HIGH, PRESSURE_CRITICAL):
            raise ValueError(f"unknown backpressure level {level!r}")
        self._pressure = level

    def _effective_budget(self) -> int:
        if self._pressure >= PRESSURE_CRITICAL:
            return 0
        if self._pressure == PRESSURE_HIGH:
            return self.budget // 2
        return self.budget

    def offer(self, record: "SessionRecord") -> str:
        """The gate's verdict for ``record``: ADMIT, DEFER or SHED."""
        if self._admitted_today < self._effective_budget():
            self._admitted_today += 1
            return ADMIT
        priority = record_priority(record)
        if priority == 0:
            return SHED
        if priority == 1:
            if self.tree.coin(record.session_id) < self.shed_probability:
                return SHED
        queue = self._queues.setdefault(record.honeypot_id, [])
        if len(queue) >= self.queue_capacity:
            return SHED
        queue.append(record)
        return DEFER

    def drain(self) -> list["SessionRecord"]:
        """Release every deferred record and reset the day's budget.

        Records come back grouped by sensor in sorted sensor-id order,
        FIFO within a sensor — a deterministic order independent of how
        the day's arrivals interleaved across sensors.
        """
        out: list["SessionRecord"] = []
        for honeypot_id in sorted(self._queues):
            out.extend(self._queues[honeypot_id])
        self._queues.clear()
        self._admitted_today = 0
        return out


def build_admission_controller(
    faults: FloodFaults | None, tree: RngTree
) -> AdmissionController | None:
    """An admission gate for one collector, or ``None`` when unbounded."""
    if faults is None or not faults.gates:
        return None
    assert faults.daily_session_budget is not None
    return AdmissionController(
        budget=faults.daily_session_budget,
        queue_capacity=faults.sensor_queue_capacity,
        shed_probability=faults.shed_probability,
        tree=tree,
    )
