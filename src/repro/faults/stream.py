"""Seeded stream fault domain: what goes wrong in *live* ingest.

The batch fault profiles (:mod:`repro.faults.plan`) model what breaks
in the *data* — outages, lossy transport, corrupted artifacts.  A live
event stream adds a second family of failures that only exist because
processing happens while data arrives: the consumer falls behind, a
sensor partitions away and replays its backlog late, a machine's clock
skews and makes a healthy stage look dead.  :class:`StreamFaults`
declares those knobs; :func:`compile_day_plan` turns them into one
concrete :class:`DayStreamPlan` per calendar day, keyed off a dedicated
``RngTree`` branch — so the same seed stalls the same days in every
run, and the supervision timeline the stream engine produces is a pure
function of ``(seed, faults)``.

Digest semantics (pinned by ``tests/test_stream.py``):

* **Stalls are digest-neutral.**  A stalled consumer buffers arrivals
  in the bounded queue and drains them FIFO, so the
  collector sees the same records in the same order — unless the queue
  overflows and backpressure forces the admission gate to shed, which
  only exists when a flood profile attaches a gate.
* **Partitions are digest-neutral without a gate.**  A partitioned
  sensor's records are buffered and replayed in original order before
  the day closes (delayed, never lost); with an admission gate the
  *delay* changes which records hit the day's budget first, which is a
  deterministic function of the fault plan.
* **Clock skew never touches record bytes without a gate.**  It skews
  only the heartbeat timestamps the supervisor reads, so it can trip
  false staleness alarms — supervision noise, not data noise — unless
  a gate is attached, where the tripped breaker's ``shed-only`` mode
  sheds deterministically.

Like the other fault modules, this one must not import
:mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from typing import Sequence

from repro.util import preset
from repro.util.rng import RngTree

#: Virtual seconds a stalled ingest consumer stays down.
STALL_VIRTUAL_S = 3.0
#: Most sensors one day's partition takes away.
PARTITION_MAX_SENSORS = 3
#: Largest heartbeat clock skew, in virtual seconds.
CLOCK_SKEW_MAX_S = 20.0
#: Stall onsets are drawn from ``[0, ONSET_WINDOW_EVENTS)``.
ONSET_WINDOW_EVENTS = 200


@dataclass(frozen=True)
class StreamFaults:
    """Declarative stream-fault configuration for one supervised run.

    Every field is a per-day probability:

    * ``stall_probability`` — the ingest consumer stalls, starting at
      a seeded event ordinal and lasting :data:`STALL_VIRTUAL_S` virtual
      seconds; arrivals pile into the bounded queue meanwhile.
    * ``partition_probability`` — up to :data:`PARTITION_MAX_SENSORS`
      seeded sensors partition away; their records buffer sensor-side
      and replay in order before day close.
    * ``clock_skew_probability`` — the supervision clock skews by a
      seeded offset up to :data:`CLOCK_SKEW_MAX_S` virtual seconds,
      aging every heartbeat the supervisor reads.

    Stall onsets are drawn uniformly in ``[0, ONSET_WINDOW_EVENTS)``;
    a day with fewer events than the drawn onset simply does not host
    the stall (short days are quiet days — deterministically so).
    """

    stall_probability: float = 0.0
    partition_probability: float = 0.0
    clock_skew_probability: float = 0.0

    def __post_init__(self) -> None:
        for item in fields(self):
            value = getattr(self, item.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"{item.name} must be in [0, 1], got {value}"
                )

    @property
    def inert(self) -> bool:
        """True when no stream fault can ever engage."""
        return not any(getattr(self, item.name) for item in fields(self))

    @classmethod
    def from_name(cls, name: str) -> "StreamFaults":
        """Resolve a named stream-fault preset."""
        return preset(STREAM_FAULT_PRESETS, name, "stream profile")


#: The stream-fault presets.  ``off`` is the inert default; ``chaos``
#: runs every fault kind at elevated probability — most days host at
#: least one — which is what the soak leg and the determinism suite
#: hammer on.
STREAM_FAULT_PRESETS = {
    "off": StreamFaults(),
    "chaos": StreamFaults(
        stall_probability=0.3,
        partition_probability=0.25,
        clock_skew_probability=0.2,
    ),
}


@dataclass(frozen=True)
class DayStreamPlan:
    """The concrete stream faults compiled for one calendar day."""

    #: Event ordinal at which the consumer stalls (for
    #: :data:`STALL_VIRTUAL_S`), or None.
    stall_at_event: int | None = None
    #: Honeypot ids partitioned away for the day (replayed before close).
    partitioned: frozenset[str] = frozenset()
    #: Offset applied to heartbeat stamps the supervisor reads.
    clock_skew_s: float = 0.0


#: Shared inert plan: fault-free days allocate nothing.
INERT_DAY_PLAN = DayStreamPlan()


def compile_day_plan(
    faults: StreamFaults,
    tree: RngTree,
    day: date,
    sensor_ids: Sequence[str],
) -> DayStreamPlan:
    """Compile the concrete fault plan for one day.

    Each fault kind draws from its own ``(day ordinal, kind)`` child
    stream, so toggling one knob never shifts another kind's schedule —
    profiles compose.  ``sensor_ids`` must be sorted (the engine passes
    the honeynet's ids in id order) so partition sampling is stable.
    """
    if faults.inert:
        return INERT_DAY_PLAN
    ordinal = day.toordinal()
    stall_at: int | None = None
    if faults.stall_probability > 0.0:
        rng = tree.rand_for(ordinal, "stall")
        if rng.random() < faults.stall_probability:
            stall_at = rng.randrange(ONSET_WINDOW_EVENTS)
    partitioned: frozenset[str] = frozenset()
    if faults.partition_probability > 0.0 and sensor_ids:
        rng = tree.rand_for(ordinal, "partition")
        if rng.random() < faults.partition_probability:
            k = rng.randint(1, min(PARTITION_MAX_SENSORS, len(sensor_ids)))
            partitioned = frozenset(rng.sample(list(sensor_ids), k))
    skew = 0.0
    if faults.clock_skew_probability > 0.0:
        rng = tree.rand_for(ordinal, "skew")
        if rng.random() < faults.clock_skew_probability:
            skew = rng.random() * CLOCK_SKEW_MAX_S
    return DayStreamPlan(
        stall_at_event=stall_at,
        partitioned=partitioned,
        clock_skew_s=skew,
    )
