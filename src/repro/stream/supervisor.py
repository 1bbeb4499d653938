"""Stream supervision: heartbeats, the degraded-mode ladder, snapshots.

The supervisor owns the robustness state machine around the stream
engine's pipeline: one circuit breaker per stage, the bounded
inter-stage queue, a heartbeat monitor grading stage liveness against
soft and hard deadlines (on *virtual* time, so supervision is
deterministic), and the explicit degraded-mode ladder::

    full  →  analysis-deferred  →  shed-only

* ``full`` — ingest and incremental analysis both run.
* ``analysis-deferred`` — the analysis breaker is open: records are
  still collected (digest-neutral), analysis work is deferred and
  counted, a seeded half-open probe decides recovery.
* ``shed-only`` — ingest itself is in distress (queue at capacity, or
  the ingest breaker tripped): the admission gate is forced to its
  critical backpressure level and sheds everything over a zero
  effective budget until the breaker's probe succeeds or the day
  boundary drains the backlog.

Every transition is recorded once, with its day ordinal, event index
and trigger reason, in :attr:`StreamSupervisor.transitions`: the
timeline that ``repro stream`` prints
(:class:`~repro.stream.engine.StreamReport`), a degraded checkpoint's
stream section carries and the status endpoint's snapshot serves.
Telemetry only counts transitions (``stream.mode.transitions`` and
``stream.mode.to.<mode>``).

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import telemetry
from repro.stream.breaker import CLOSED, CircuitBreaker
from repro.stream.queues import BoundedStreamQueue
from repro.util.rng import RngTree

#: Degraded-mode ladder rungs, mildest first.
MODE_FULL = "full"
MODE_ANALYSIS_DEFERRED = "analysis-deferred"
MODE_SHED_ONLY = "shed-only"

#: Escalation order: a higher rank always wins.
MODE_RANK = {
    MODE_FULL: 0,
    MODE_ANALYSIS_DEFERRED: 1,
    MODE_SHED_ONLY: 2,
}

#: Stage names supervised by the stream engine.
STAGE_INGEST = "ingest"
STAGE_ANALYSIS = "analysis"
STAGES = (STAGE_INGEST, STAGE_ANALYSIS)

#: Heartbeat verdicts.
BEAT_OK = "ok"
BEAT_SOFT = "soft"
BEAT_HARD = "hard"

#: Heartbeat staleness, in virtual seconds, that is worth a warning
#: (soft) and that marks the stage failed (hard).  A crashed stage
#: announces itself; a hung one just stops, and a slow stage is not yet
#: a dead one.
HEARTBEAT_SOFT_S = 4.0
HEARTBEAT_HARD_S = 8.0


@dataclass(frozen=True)
class ModeTransition:
    """One rung change of the degraded-mode ladder, in stream time."""

    day: int  #: calendar day ordinal
    event: int  #: event index within the day
    from_mode: str
    to_mode: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "day": self.day,
            "event": self.event,
            "from": self.from_mode,
            "to": self.to_mode,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ModeTransition":
        return cls(
            day=int(payload["day"]),
            event=int(payload["event"]),
            from_mode=str(payload["from"]),
            to_mode=str(payload["to"]),
            reason=str(payload["reason"]),
        )


@dataclass
class HeartbeatMonitor:
    """Stage liveness against virtual time.

    Each processed event beats its stage; :meth:`check` grades the
    staleness of the last beat against :data:`HEARTBEAT_SOFT_S` and
    :data:`HEARTBEAT_HARD_S`.  Breaches are counted once per *episode*
    (per escalation since the last healthy check), not once per event,
    so a skewed day yields one soft and one hard alarm — deterministic
    and bounded.
    """

    beats: dict[str, float] = field(default_factory=dict)
    soft_breaches: int = 0
    hard_breaches: int = 0
    _level: dict[str, str] = field(default_factory=dict, repr=False)

    def reset(self, now: float) -> None:
        """Stamp every stage alive at ``now`` (day start / resume)."""
        for stage in STAGES:
            self.beats[stage] = now
            self._level[stage] = BEAT_OK

    def beat(self, stage: str, at: float) -> None:
        self.beats[stage] = at

    def check(self, stage: str, now: float) -> str | None:
        """Grade ``stage``'s staleness; returns a *new* breach or None.

        ``BEAT_SOFT``/``BEAT_HARD`` is returned only on escalation —
        repeated checks inside one episode return None.
        """
        staleness = now - self.beats.get(stage, now)
        if staleness >= HEARTBEAT_HARD_S:
            level = BEAT_HARD
        elif staleness >= HEARTBEAT_SOFT_S:
            level = BEAT_SOFT
        else:
            level = BEAT_OK
        previous = self._level.get(stage, BEAT_OK)
        if level == previous:
            return None
        self._level[stage] = level
        if level == BEAT_SOFT and previous == BEAT_OK:
            self.soft_breaches += 1
            return BEAT_SOFT
        if level == BEAT_HARD and previous != BEAT_HARD:
            self.hard_breaches += 1
            return BEAT_HARD
        return None


@dataclass
class StreamSupervisor:
    """Owns breakers, queue, heartbeats and the mode ladder for one run."""

    queue: BoundedStreamQueue
    breakers: dict[str, CircuitBreaker]
    heartbeat: HeartbeatMonitor = field(default_factory=HeartbeatMonitor)
    mode: str = MODE_FULL
    transitions: list[ModeTransition] = field(default_factory=list)

    @classmethod
    def build(cls, tree: RngTree, *, queue_capacity: int) -> "StreamSupervisor":
        """A fresh supervisor: the queue's high watermark is half its
        capacity, and each stage's breaker keeps its default thresholds
        and draws its probe schedule from ``tree``."""
        breaker_tree = tree.child("breaker")
        return cls(
            queue=BoundedStreamQueue(
                name="ingest-analysis",
                capacity=queue_capacity,
                high_watermark=max(1, queue_capacity // 2),
            ),
            breakers={
                stage: CircuitBreaker(stage=stage, tree=breaker_tree)
                for stage in STAGES
            },
        )

    # ------------------------------------------------------------------
    # the mode ladder
    # ------------------------------------------------------------------
    def set_mode(
        self, to_mode: str, reason: str, day: int, event: int
    ) -> bool:
        """Move to ``to_mode`` (any direction); records and counts.

        Returns True iff the mode actually changed.  Telemetry: every
        transition bumps ``stream.mode.transitions`` and
        ``stream.mode.to.<mode>`` — rare events, so they are emitted
        directly rather than batched like the per-day counters.
        """
        if to_mode not in MODE_RANK:
            raise ValueError(f"unknown stream mode {to_mode!r}")
        if to_mode == self.mode:
            return False
        self.transitions.append(
            ModeTransition(day, event, self.mode, to_mode, reason)
        )
        self.mode = to_mode
        registry = telemetry.active()
        if registry is not None:
            registry.count("stream.mode.transitions")
            registry.count(f"stream.mode.to.{to_mode}")
        return True

    def escalate(
        self, to_mode: str, reason: str, day: int, event: int
    ) -> bool:
        """Raise the ladder to ``to_mode`` iff it outranks the current rung."""
        if MODE_RANK[to_mode] <= MODE_RANK[self.mode]:
            return False
        return self.set_mode(to_mode, reason, day, event)

    def recovery_target(self) -> str:
        """The mildest rung the current breaker states allow."""
        if self.breakers[STAGE_INGEST].state != CLOSED:
            return MODE_SHED_ONLY
        if self.breakers[STAGE_ANALYSIS].state != CLOSED:
            return MODE_ANALYSIS_DEFERRED
        return MODE_FULL

    def recover(self, reason: str, day: int, event: int) -> bool:
        """Step down to the mildest rung the breakers allow, if milder."""
        target = self.recovery_target()
        if MODE_RANK[target] >= MODE_RANK[self.mode]:
            return False
        return self.set_mode(target, reason, day, event)

    # ------------------------------------------------------------------
    # checkpoint snapshot/restore
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Does supervision state differ from a freshly built supervisor?

        Checked at day boundaries (queue drained, partitions healed), so
        only the durable pieces matter: the mode, each breaker's state
        and trip history, and the recorded timeline.
        """
        return (
            self.mode != MODE_FULL
            or bool(self.transitions)
            or any(breaker.dirty for breaker in self.breakers.values())
        )

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "transitions": [t.as_dict() for t in self.transitions],
            "breakers": {
                stage: breaker.snapshot()
                for stage, breaker in self.breakers.items()
            },
        }

    def restore(self, payload: dict) -> None:
        mode = str(payload.get("mode", MODE_FULL))
        if mode not in MODE_RANK:
            raise ValueError(f"unknown stream mode {mode!r} in checkpoint")
        self.mode = mode
        self.transitions = [
            ModeTransition.from_dict(t)
            for t in payload.get("transitions", [])
        ]
        for stage, state in payload.get("breakers", {}).items():
            if stage in self.breakers:
                self.breakers[stage].restore(state)
