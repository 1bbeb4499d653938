"""Per-stage circuit breakers with seeded, deterministic probe schedules.

The classic closed → open → half-open machine, with one twist that
keeps the whole supervision layer a pure function of the seed: time is
*virtual* (the stream engine advances a tick per processed event), and
the open-state backoff before a half-open probe is drawn from an
``RngTree`` stream keyed by ``(stage, trip count)`` — exponential base
backoff with seeded jitter, so the same seed always probes at the same
virtual instant, and two runs of the same config produce identical
transition timelines (``tests/test_stream.py`` pins this).

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.rng import RngTree

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive failures that open a closed breaker.
FAILURE_THRESHOLD = 3

#: Virtual seconds before the first half-open probe (before jitter);
#: each further trip doubles it, up to :data:`MAX_BACKOFF_S`.
RECOVERY_S = 4.0
MAX_BACKOFF_S = 64.0


@dataclass(frozen=True)
class BreakerTransition:
    """One breaker state change, stamped in stream time."""

    day: int  #: calendar day ordinal
    event: int  #: event index within the day
    from_state: str
    to_state: str
    reason: str

    def as_dict(self) -> dict:
        return {
            "day": self.day,
            "event": self.event,
            "from": self.from_state,
            "to": self.to_state,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "BreakerTransition":
        return cls(
            day=int(payload["day"]),
            event=int(payload["event"]),
            from_state=str(payload["from"]),
            to_state=str(payload["to"]),
            reason=str(payload["reason"]),
        )


@dataclass
class CircuitBreaker:
    """One stage's breaker; all timing in virtual seconds.

    :data:`FAILURE_THRESHOLD` consecutive failures open the breaker;
    while open, :meth:`allow` refuses work until the seeded probe
    instant, then admits exactly one half-open probe.  A successful
    probe closes the breaker; a failed one re-opens it with doubled
    backoff (capped at :data:`MAX_BACKOFF_S`).  :meth:`trip` force-opens
    from any state — the heartbeat monitor's hard-breach hook.
    """

    stage: str
    tree: RngTree
    state: str = CLOSED
    failures: int = 0
    trips: int = 0
    probe_at: float | None = None
    transitions: list[BreakerTransition] = field(default_factory=list)

    def _probe_delay(self) -> float:
        """Seeded backoff before the next half-open probe.

        Exponential in the trip count, jittered by the first draw of the
        ``(stage, trips)`` child stream into ``[0.5, 1.5)`` of the base —
        deterministic per (seed, stage, trip), never wall-clock.
        """
        base = min(RECOVERY_S * (2 ** max(self.trips - 1, 0)), MAX_BACKOFF_S)
        return base * (0.5 + self.tree.coin(self.stage, self.trips))

    def _transition(
        self, to_state: str, reason: str, day: int, event: int
    ) -> None:
        self.transitions.append(
            BreakerTransition(day, event, self.state, to_state, reason)
        )
        self.state = to_state

    def _open(self, now: float, reason: str, day: int, event: int) -> None:
        self.trips += 1
        self.probe_at = now + self._probe_delay()
        self._transition(OPEN, reason, day, event)

    def allow(self, now: float, day: int, event: int) -> bool:
        """May the stage attempt work now?  Open → half-open when due."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.probe_at is not None and now >= self.probe_at:
                self._transition(HALF_OPEN, "probe-due", day, event)
                return True
            return False
        return True  # half-open: the probe attempt is in flight

    def record_success(self, now: float, day: int, event: int) -> None:
        if self.state == HALF_OPEN:
            self.failures = 0
            self.probe_at = None
            self._transition(CLOSED, "probe-succeeded", day, event)
        elif self.state == CLOSED:
            self.failures = 0

    def record_failure(
        self, now: float, day: int, event: int, reason: str = "failure"
    ) -> None:
        if self.state == HALF_OPEN:
            self._open(now, "probe-failed", day, event)
        elif self.state == CLOSED:
            self.failures += 1
            if self.failures >= FAILURE_THRESHOLD:
                self._open(now, reason, day, event)

    def trip(self, now: float, day: int, event: int, reason: str) -> None:
        """Force-open from any state (e.g. a heartbeat hard breach)."""
        if self.state != OPEN:
            self._open(now, reason, day, event)

    @property
    def dirty(self) -> bool:
        """Does this breaker carry state a checkpoint must preserve?

        Trip counts matter even after recovery: they drive the backoff
        of any *future* probe schedule.
        """
        return self.state != CLOSED or self.failures > 0 or self.trips > 0

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "failures": self.failures,
            "trips": self.trips,
            "probe_at": self.probe_at,
            "transitions": [t.as_dict() for t in self.transitions],
        }

    def restore(self, payload: dict) -> None:
        self.state = str(payload["state"])
        self.failures = int(payload["failures"])
        self.trips = int(payload["trips"])
        probe_at = payload.get("probe_at")
        self.probe_at = float(probe_at) if probe_at is not None else None
        self.transitions = [
            BreakerTransition.from_dict(t)
            for t in payload.get("transitions", [])
        ]
