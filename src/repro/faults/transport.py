"""The honeypot→collector delivery channel.

Real honeynets ship session logs over an unreliable network.  This
module models that hop: a :class:`ResilientChannel` retries failed
delivery attempts with capped exponential backoff plus jitter, parks
records that exhaust their attempts in the collector's dead-letter
queue, and lets the collector deduplicate at-least-once redeliveries.
When the profile's transport is lossless (the default paper profile)
:func:`build_channel` returns a zero-overhead :class:`DirectChannel`
instead, so the fault machinery costs nothing unless enabled.

Retry backoff is *simulated* time: it is accounted in
:class:`ChannelStats` but does not shift session timestamps — delivery
latency is not part of the recorded data, exactly as in the deployed
system where logs carry capture time, not arrival time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import telemetry
from repro.faults.plan import TransportFaults
from repro.honeypot.session import SessionRecord
from repro.telemetry.metrics import BACKOFF_BOUNDS
from repro.util.rng import RngTree

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.honeynet.collector import Collector


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with equal jitter."""

    max_attempts: int = 4
    base_s: float = 0.5
    cap_s: float = 30.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.base_s < 0 or self.cap_s < self.base_s:
            raise ValueError("need 0 <= base_s <= cap_s")

    @classmethod
    def from_faults(cls, faults: TransportFaults) -> "RetryPolicy":
        return cls(
            max_attempts=faults.max_attempts,
            base_s=faults.backoff_base_s,
            cap_s=faults.backoff_cap_s,
        )

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Delay before retrying after failed attempt ``attempt`` (1-based)."""
        raw = min(self.cap_s, self.base_s * 2 ** (attempt - 1))
        return raw * (1.0 - self.jitter + self.jitter * rng.random())


@dataclass
class ChannelStats:
    """Transport-side accounting (collector counters cover the rest)."""

    delivered: int = 0
    attempts: int = 0
    transient_failures: int = 0
    corrupt_deliveries: int = 0
    duplicate_deliveries: int = 0
    simulated_backoff_s: float = 0.0


@dataclass
class DirectChannel:
    """Lossless pass-through used when no transport faults are enabled."""

    collector: "Collector"
    stats: ChannelStats = field(default_factory=ChannelStats)

    def deliver(self, record: SessionRecord) -> bool:
        return self.collector.ingest(record)

    def flush_telemetry(self) -> None:
        """Nothing to flush — a lossless channel records no telemetry."""


class ResilientChannel:
    """At-least-once delivery with bounded retries over a lossy path.

    Every record gets its own random stream keyed by session id, so
    transport faults are deterministic under the master seed and
    independent of delivery order.
    """

    def __init__(
        self,
        collector: "Collector",
        faults: TransportFaults,
        tree: RngTree,
        policy: RetryPolicy | None = None,
    ) -> None:
        self.collector = collector
        self.faults = faults
        self.policy = policy or RetryPolicy.from_faults(faults)
        self.stats = ChannelStats()
        self._tree = tree
        self._flushed_attempts = 0
        self._flushed_delivered = 0

    def deliver(self, record: SessionRecord) -> bool:
        """Deliver one record; returns True iff it ended up stored."""
        collector = self.collector
        collector.generated += 1
        reason = collector.drop_reason(record)
        if reason is not None:
            collector.record_drop(reason)
            return False
        rng = self._tree.rand_for(record.session_id)
        faults = self.faults
        registry = telemetry.active()
        fail_below = faults.failure_probability + faults.corruption_probability
        for attempt in range(1, self.policy.max_attempts + 1):
            self.stats.attempts += 1
            roll = rng.random()
            if roll < faults.corruption_probability:
                self.stats.corrupt_deliveries += 1
                if registry is not None:
                    registry.count("transport.corrupt_deliveries")
            elif roll < fail_below:
                self.stats.transient_failures += 1
                if registry is not None:
                    registry.count("transport.transient_failures")
            else:
                # Route through the admission gate when one is attached;
                # a deferred record reports unstored here and lands at
                # the day-boundary drain instead.
                stored = collector.admit(record)
                if stored:
                    self.stats.delivered += 1
                    if rng.random() < faults.duplicate_probability:
                        # Lost ack: the sensor re-transmits the stored
                        # record; the duplicate crosses the collection
                        # boundary and is deduplicated there.
                        self.stats.duplicate_deliveries += 1
                        if registry is not None:
                            registry.count("transport.duplicate_deliveries")
                        collector.ingest(record)
                return stored
            if attempt < self.policy.max_attempts:
                collector.retried += 1
                backoff = self.policy.backoff_s(attempt, rng)
                self.stats.simulated_backoff_s += backoff
                if registry is not None:
                    registry.count("transport.retries")
                    registry.observe(
                        "transport.backoff_s", backoff, BACKOFF_BOUNDS
                    )
        collector.dead_letter(record)
        return False

    def flush_telemetry(self) -> None:
        """Emit attempt/delivery counter deltas since the last flush.

        The two counters that move on *every* record are batch-granular
        like the collector's: ``deliver`` only bumps plain
        :class:`ChannelStats` attributes, and the day loop flushes the
        deltas at day boundaries and at run finish.  Totals equal
        per-record emission exactly.  The rare-path counters (failures,
        corruptions, duplicates, retries and the backoff histogram)
        stay inline — they fire only on fault rolls.
        """
        stats = self.stats
        registry = telemetry.active()
        if registry is not None:
            attempts = stats.attempts - self._flushed_attempts
            if attempts:
                registry.count("transport.attempts", attempts)
            delivered = stats.delivered - self._flushed_delivered
            if delivered:
                registry.count("transport.delivered", delivered)
        self._flushed_attempts = stats.attempts
        self._flushed_delivered = stats.delivered


def build_channel(
    collector: "Collector", faults: TransportFaults, tree: RngTree
) -> "DirectChannel | ResilientChannel":
    """The cheapest channel that honours ``faults``."""
    if faults.lossless:
        return DirectChannel(collector)
    return ResilientChannel(collector, faults, tree)
