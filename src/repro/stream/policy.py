"""The stream engine's execution policy: queue depth and stream faults.

A :class:`StreamPolicy` is deliberately *not* part of
:class:`~repro.config.SimulationConfig`: it describes how a run
executes, never what data it produces on the healthy path, so it stays
out of config fingerprints and dataset cache keys.  Every run is
supervised: ``run_simulation`` runs under :meth:`StreamPolicy.live`,
and the live service mode under it or a faulted variant.  Whether
records cross the supervised pipeline is worked out from the policy's
own faults (:attr:`~repro.faults.stream.StreamFaults.inert`), not set.

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
from repro.util import preset


@dataclass(frozen=True)
class StreamPolicy:
    """Supervision configuration for one stream run.

    * ``faults`` — the seeded stream fault domain
      (:class:`~repro.faults.stream.StreamFaults`).
    * ``queue_capacity`` — the bounded queue in front of the ingest
      consumer; depth at half the capacity raises backpressure to
      ``PRESSURE_HIGH``, a full queue raises ``PRESSURE_CRITICAL`` and
      trips the ingest breaker (``shed-only`` until its probe
      succeeds).

    The heartbeat deadlines, breaker thresholds and virtual clock tick
    are constants of :mod:`repro.stream.supervisor`,
    :mod:`repro.stream.breaker` and :mod:`repro.stream.engine`.
    """

    faults: StreamFaults = field(default_factory=StreamFaults)
    queue_capacity: int = 256

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")

    @classmethod
    def live(cls) -> "StreamPolicy":
        """The fault-free defaults every batch run uses."""
        return cls()

    @classmethod
    def chaos(cls) -> "StreamPolicy":
        """The ``chaos`` fault preset and a shallow queue.

        The shallow queue makes consumer stalls reach the critical
        backpressure level at soak scale, so a full queue trips the
        ingest breaker into ``shed-only``, not only a hard heartbeat
        breach does.
        """
        return cls(faults=StreamFaults.from_name("chaos"), queue_capacity=48)

    @classmethod
    def from_name(cls, name: str) -> "StreamPolicy":
        """Resolve a named policy (CLI ``--stream-profile``)."""
        return preset(STREAM_POLICY_PRESETS, name, "stream profile")


#: The stream policies, by name.
STREAM_POLICY_PRESETS = {
    "live": StreamPolicy.live(),
    "chaos": StreamPolicy.chaos(),
}
