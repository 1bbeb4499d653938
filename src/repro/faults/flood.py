"""Seeded session-burst generator: the arrival side of overload.

Honeypot arrivals are heavy-tailed — most days carry steady scan
background, some days a scanning campaign multiplies the volume.  A
:class:`FloodGenerator` injects those campaign days: on each flood day
(decided per day ordinal from a seed-derived stream) it emits a burst of
scanner no-op connections — SSH connects that offer no credentials and
run nothing, the cheapest and shed-first traffic class — spread across
the fleet at random offsets within the day.

Determinism contract: every decision (which days flood, which sensor
each arrival hits, when) comes from ``tree.child(day ordinal)``, so a
run and its resume from a mid-window checkpoint regenerate the *same*
arrivals independently, and the simulation's own record streams are
never perturbed.

This module must not import :mod:`repro.config` (the config module
embeds :class:`~repro.faults.plan.FaultProfile`, which carries our
:class:`~repro.faults.plan.FloodFaults` knobs).
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

from repro.faults.plan import FloodFaults
from repro.honeypot.session import ConnectionIntent
from repro.util.rng import RngTree

#: ``bot_label`` stamped on injected flood sessions (ground truth only;
#: the analysis pipeline never reads it).
FLOOD_LABEL = "flood-scanner"


@dataclass(frozen=True)
class FloodGenerator:
    """Deterministic scan-flood arrivals for one run."""

    faults: FloodFaults
    tree: RngTree

    def arrivals(
        self, day: date, fleet_size: int
    ) -> list[tuple[int, float, ConnectionIntent]]:
        """The flood arrivals for ``day``, or an empty list.

        Each arrival is ``(honeypot index, seconds into the day,
        intent)``.  Regenerating the list for the same day is
        byte-identical — the count pass relies on that.
        """
        if fleet_size <= 0:
            return []
        rng = self.tree.child(day.toordinal()).rand()
        if rng.random() >= self.faults.burst_probability:
            return []
        out: list[tuple[int, float, ConnectionIntent]] = []
        for _ in range(self.faults.burst_sessions):
            index = rng.randrange(fleet_size)
            seconds = rng.random() * 86_400.0
            client_ip = (
                f"{rng.randrange(1, 224)}.{rng.randrange(256)}"
                f".{rng.randrange(256)}.{rng.randrange(1, 255)}"
            )
            intent = ConnectionIntent(
                client_ip=client_ip,
                client_port=40_000 + rng.randrange(20_000),
                credentials=(),
                command_lines=(),
                duration_s=1.0,
                bot_label=FLOOD_LABEL,
            )
            out.append((index, seconds, intent))
        return out


def build_flood_generator(
    faults: FloodFaults | None, tree: RngTree
) -> FloodGenerator | None:
    """A flood generator for one run, or ``None`` when bursts are off."""
    if faults is None or not faults.floods:
        return None
    return FloodGenerator(faults=faults, tree=tree)
