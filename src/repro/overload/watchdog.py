"""Soft/hard deadlines for liveness watchdogs.

A crashed stage announces itself; a *hung* stage just stops.  The
defence is a pair of deadlines derived from one configured hard limit:

* **soft** (``soft_fraction`` of the hard limit) — the watchdog notes
  the breach and keeps waiting; a slow stage is not yet a dead stage.
* **hard** — the watchdog treats the stage as failed.

The stream engine's heartbeat monitor
(:class:`repro.stream.supervisor.HeartbeatMonitor`) grades stage
liveness against these deadlines on its virtual clock, so breaches are
a pure function of ``(seed, policy)``.

This module must not import :mod:`repro.config`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeadlinePolicy:
    """Soft/hard deadlines for one watched stage."""

    hard_s: float
    soft_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.hard_s <= 0.0:
            raise ValueError("hard_s must be positive")
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ValueError("soft_fraction must be in (0, 1]")

    @property
    def soft_s(self) -> float:
        """Seconds after which a still-running stage is worth a warning."""
        return self.hard_s * self.soft_fraction

    @classmethod
    def from_deadline(cls, hard_s: float | None) -> "DeadlinePolicy | None":
        """The policy for a configured hard deadline, or ``None``."""
        if hard_s is None:
            return None
        return cls(hard_s=float(hard_s))
