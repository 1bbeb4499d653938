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


#: Equal jitter: a retry waits a uniform draw from the upper
#: ``BACKOFF_JITTER`` share of its capped exponential delay.
BACKOFF_JITTER = 0.5


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
    independent of delivery order.  ``faults`` sets the attempts and the
    capped exponential backoff; :data:`BACKOFF_JITTER` jitters it.
    """

    def __init__(
        self, collector: "Collector", faults: TransportFaults, tree: RngTree
    ) -> None:
        self.collector = collector
        self.faults = faults
        self.stats = ChannelStats()
        self._tree = tree
        self._flushed: dict[str, int] = {}

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
        for attempt in range(1, faults.max_attempts + 1):
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
            if attempt < faults.max_attempts:
                collector.retried += 1
                backoff = self.backoff_s(attempt, rng)
                self.stats.simulated_backoff_s += backoff
                if registry is not None:
                    registry.count("transport.retries")
                    registry.observe(
                        "transport.backoff_s", backoff, BACKOFF_BOUNDS
                    )
        collector.dead_letter(record)
        return False

    def backoff_s(self, attempt: int, rng: random.Random) -> float:
        """Delay before retrying after failed attempt ``attempt`` (1-based)."""
        faults = self.faults
        raw = min(faults.backoff_cap_s, faults.backoff_base_s * 2 ** (attempt - 1))
        return raw * (1.0 - BACKOFF_JITTER + BACKOFF_JITTER * rng.random())

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
        telemetry.flush_counts(
            self._flushed,
            (
                ("transport.attempts", stats.attempts),
                ("transport.delivered", stats.delivered),
            ),
        )


def build_channel(
    collector: "Collector", faults: TransportFaults, tree: RngTree
) -> "DirectChannel | ResilientChannel":
    """The cheapest channel that honours ``faults``."""
    if faults.lossless:
        return DirectChannel(collector)
    return ResilientChannel(collector, faults, tree)
