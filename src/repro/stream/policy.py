"""The stream engine's execution policy: supervision, queue depth, faults.

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


@dataclass(frozen=True)
class StreamPolicy:
    """Supervision configuration for one stream run.

    * ``supervised`` — False bypasses the supervision layer entirely
      (pure batch replay; required False path for ``run_simulation``'s
      serial engine, byte-identical and overhead-free).
    * ``faults`` — the seeded stream fault domain
      (:class:`~repro.faults.stream.StreamFaults`); non-inert faults
      require ``supervised=True``.
    * ``queue_capacity`` — the bounded inter-stage queue; depth at half
      the capacity raises backpressure level 1, a full queue raises
      level 2 (critical) and escalates to shed-only.

    The heartbeat deadlines, breaker thresholds and virtual clock tick
    are constants of :mod:`repro.stream.supervisor`,
    :mod:`repro.stream.breaker` and :mod:`repro.stream.engine`.
    """

    supervised: bool = True
    faults: StreamFaults = field(default_factory=StreamFaults)
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        if not self.faults.inert and not self.supervised:
            raise ValueError(
                "stream faults require a supervised stream policy"
            )

    @classmethod
    def replay(cls) -> "StreamPolicy":
        """Batch replay: no supervision, no faults, no overhead."""
        return cls(supervised=False)

    @classmethod
    def live(cls) -> "StreamPolicy":
        """The supervised live-service defaults (fault-free)."""
        return cls()

    @classmethod
    def chaos(cls) -> "StreamPolicy":
        """Supervised with the ``chaos`` fault preset and a shallow queue.

        The shallow queue makes consumer stalls reach the critical
        backpressure level at soak scale, so the full ladder — including
        shed-only — is exercised, not just analysis deferral.
        """
        return cls(faults=StreamFaults.from_name("chaos"), queue_capacity=48)

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
