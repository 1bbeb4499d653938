"""The stream engine's execution policy: supervision knobs + faults.

A :class:`StreamPolicy` is deliberately *not* part of
:class:`~repro.config.SimulationConfig`: it describes how a run
executes, never what data it produces on the healthy path, so it stays
out of config fingerprints and dataset cache keys.  The batch serial
engine is literally the stream engine under
:meth:`StreamPolicy.replay` (supervision bypassed, zero per-event
overhead); the live service mode runs under :meth:`StreamPolicy.live`
or a faulted variant.

The one exception to digest-neutrality is spelled out in
:mod:`repro.faults.stream`: active stream faults plus an attached
admission gate make shedding decisions that *do* shape the dataset —
deterministically, as a pure function of ``(seed, policy)`` — which is
why a checkpoint written in a degraded state records the fault
configuration and refuses to resume under a different one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.faults.stream import StreamFaults
from repro.overload.watchdog import DeadlinePolicy


@dataclass(frozen=True)
class StreamPolicy:
    """Supervision configuration for one stream run.

    * ``supervised`` — False bypasses the supervision layer entirely
      (pure batch replay; required False path for ``run_simulation``'s
      serial engine, byte-identical and overhead-free).
    * ``queue_capacity`` / ``high_watermark`` — the bounded inter-stage
      queue; depth at the watermark raises backpressure level 1, a full
      queue raises level 2 (critical) and escalates to shed-only.
      ``high_watermark=None`` defaults to half the capacity.
    * ``heartbeat_deadline_s`` — virtual-time hard deadline for stage
      heartbeats, armed as a
      :class:`~repro.overload.watchdog.DeadlinePolicy` (soft at half);
      None disarms heartbeat supervision.
    * ``breaker_*`` — per-stage circuit-breaker thresholds and the
      seeded probe backoff base/cap.
    * ``tick_s`` — virtual seconds the stream clock advances per pushed
      event; all stall durations, skews and probe schedules are
      measured on this clock, never wall time.
    * ``faults`` — the seeded stream fault domain
      (:class:`~repro.faults.stream.StreamFaults`); non-inert faults
      require ``supervised=True``.
    """

    supervised: bool = True
    faults: StreamFaults = field(default_factory=StreamFaults)
    queue_capacity: int = 256
    high_watermark: int | None = None
    heartbeat_deadline_s: float | None = 8.0
    breaker_failure_threshold: int = 3
    breaker_recovery_s: float = 4.0
    breaker_max_backoff_s: float = 64.0
    tick_s: float = 0.05

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if self.high_watermark is not None and not (
            0 < self.high_watermark <= self.queue_capacity
        ):
            raise ValueError("high_watermark must be in (0, queue_capacity]")
        if self.breaker_failure_threshold < 1:
            raise ValueError("breaker_failure_threshold must be at least 1")
        if self.breaker_recovery_s <= 0:
            raise ValueError("breaker_recovery_s must be positive")
        if self.breaker_max_backoff_s < self.breaker_recovery_s:
            raise ValueError(
                "breaker_max_backoff_s must be >= breaker_recovery_s"
            )
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if not self.faults.inert and not self.supervised:
            raise ValueError(
                "stream faults require a supervised stream policy"
            )

    @property
    def effective_high_watermark(self) -> int:
        if self.high_watermark is not None:
            return self.high_watermark
        return max(1, self.queue_capacity // 2)

    def heartbeat_policy(self) -> DeadlinePolicy | None:
        return DeadlinePolicy.from_deadline(self.heartbeat_deadline_s)

    @classmethod
    def replay(cls) -> "StreamPolicy":
        """Batch replay: no supervision, no faults, no overhead."""
        return cls(supervised=False, heartbeat_deadline_s=None)

    @classmethod
    def live(cls, **overrides) -> "StreamPolicy":
        """The supervised live-service defaults (fault-free)."""
        return cls(**overrides)

    @classmethod
    def chaos(cls, **overrides) -> "StreamPolicy":
        """Supervised with the ``chaos`` fault preset and a shallow queue.

        The shallow queue makes consumer stalls reach the critical
        backpressure level at soak scale, so the full ladder — including
        shed-only — is exercised, not just analysis deferral.
        """
        overrides.setdefault("faults", StreamFaults.from_name("chaos"))
        overrides.setdefault("queue_capacity", 48)
        return cls(**overrides)

    @classmethod
    def from_name(cls, name: str) -> "StreamPolicy":
        """Resolve a named policy (CLI ``--stream-profile``)."""
        presets = {
            "replay": cls.replay,
            "live": cls.live,
            "chaos": cls.chaos,
        }
        try:
            return presets[name]()
        except KeyError:
            known = ", ".join(sorted(presets))
            raise ValueError(
                f"unknown stream profile {name!r} (known: {known})"
            ) from None
