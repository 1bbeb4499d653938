"""Stream supervision: the ingest breaker, its heartbeat, the degraded mode.

The supervisor owns the robustness state machine around the stream
engine's pipeline: the ingest stage's circuit breaker, the bounded
queue in front of the consumer, and a heartbeat monitor grading the
stage's liveness against soft and hard deadlines (on *virtual* time,
so supervision is deterministic).

The degraded mode is a view of the breaker, not a second machine:

* ``full`` — the ingest breaker is closed: the admission gate sees the
  queue's own backpressure level.
* ``shed-only`` — the breaker is open (the queue reached capacity, or
  a hard heartbeat breach tripped it): the admission gate is forced to
  its critical backpressure level and sheds everything over a zero
  effective budget until the breaker's seeded half-open probe
  succeeds.

The mode timeline (:attr:`StreamSupervisor.transitions`) is the
breaker's openings and closings, each stamped with its day ordinal,
event index and the breaker's reason: the timeline that ``repro
stream`` prints (:class:`~repro.stream.engine.StreamReport`) and the
status endpoint's snapshot serves.  A degraded checkpoint carries the
breaker, so the mode and its timeline come back with it.  Telemetry
only counts transitions (``stream.mode.transitions`` and
``stream.mode.to.<mode>``).

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stream.breaker import CLOSED, CircuitBreaker, Transition
from repro.stream.queues import BoundedStreamQueue
from repro.util.rng import RngTree

#: Degraded modes: the ingest breaker closed, and not closed.
MODE_FULL = "full"
MODE_SHED_ONLY = "shed-only"

#: The supervised stage's name (it also keys the breaker's probe jitter).
STAGE_INGEST = "ingest"

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


def mode_of(state: str) -> str:
    """The degraded mode an ingest breaker state stands for."""
    return MODE_FULL if state == CLOSED else MODE_SHED_ONLY


@dataclass
class HeartbeatMonitor:
    """The ingest stage's liveness against virtual time.

    Each processed event beats; :meth:`check` grades the staleness of
    the last beat against :data:`HEARTBEAT_SOFT_S` and
    :data:`HEARTBEAT_HARD_S`.  Breaches are counted once per *episode*
    (per escalation since the last healthy check), not once per event,
    so a skewed day yields one soft and one hard alarm — deterministic
    and bounded.
    """

    last_beat: float = 0.0
    soft_breaches: int = 0
    hard_breaches: int = 0
    _level: str = field(default=BEAT_OK, repr=False)

    def reset(self, now: float) -> None:
        """Stamp the stage alive at ``now`` (day start)."""
        self.last_beat = now
        self._level = BEAT_OK

    def beat(self, at: float) -> None:
        self.last_beat = at

    def check(self, now: float) -> str | None:
        """Grade the staleness; returns a *new* breach or None.

        ``BEAT_SOFT``/``BEAT_HARD`` is returned only on escalation —
        repeated checks inside one episode return None.
        """
        staleness = now - self.last_beat
        if staleness >= HEARTBEAT_HARD_S:
            level = BEAT_HARD
        elif staleness >= HEARTBEAT_SOFT_S:
            level = BEAT_SOFT
        else:
            level = BEAT_OK
        previous = self._level
        if level == previous:
            return None
        self._level = level
        if level == BEAT_SOFT and previous == BEAT_OK:
            self.soft_breaches += 1
            return BEAT_SOFT
        if level == BEAT_HARD:
            self.hard_breaches += 1
            return BEAT_HARD
        return None


@dataclass
class StreamSupervisor:
    """Owns the ingest breaker, the queue and the heartbeat for one run."""

    queue: BoundedStreamQueue
    breaker: CircuitBreaker
    heartbeat: HeartbeatMonitor = field(default_factory=HeartbeatMonitor)

    @classmethod
    def build(cls, tree: RngTree, *, queue_capacity: int) -> "StreamSupervisor":
        """A fresh supervisor: the queue's high watermark is half its
        capacity, and the ingest breaker keeps its default thresholds
        and draws its probe schedule from ``tree``."""
        return cls(
            queue=BoundedStreamQueue(
                name=STAGE_INGEST,
                capacity=queue_capacity,
                high_watermark=max(1, queue_capacity // 2),
            ),
            breaker=CircuitBreaker(
                stage=STAGE_INGEST, tree=tree.child("breaker")
            ),
        )

    @property
    def mode(self) -> str:
        """``shed-only`` while the ingest breaker is not closed."""
        return mode_of(self.breaker.state)

    @property
    def transitions(self) -> list[Transition]:
        """The mode timeline: the breaker's transitions with repeats
        collapsed (a half-open probe is still ``shed-only``)."""
        timeline: list[Transition] = []
        mode = MODE_FULL
        for change in self.breaker.transitions:
            to_mode = mode_of(change.to_state)
            if to_mode != mode:
                timeline.append(
                    Transition(
                        change.day, change.event, mode, to_mode, change.reason
                    )
                )
                mode = to_mode
        return timeline

    # ------------------------------------------------------------------
    # checkpoint snapshot/restore
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> bool:
        """Does supervision state differ from a freshly built supervisor?

        Checked at day boundaries (queue drained, partitions healed), so
        only the breaker's state and trip history matter.
        """
        return self.breaker.dirty

    def snapshot(self) -> dict:
        return {"breaker": self.breaker.snapshot()}

    def restore(self, payload: dict) -> None:
        self.breaker.restore(payload["breaker"])
