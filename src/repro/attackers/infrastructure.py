"""Malware-storage infrastructure: the hosts attackers download from.

Reproduces the paper's section-7 ecosystem:

* storage ASes skew heavily toward *recently registered*, *small*
  hosting ASes (Figure 8) — by construction, each archetype's hosts are
  stratified across the target age/size distributions, and an AS's
  registration date is anchored shortly before its hosts' first abuse;
* hosts have very different lifetimes (Figure 9) — a large churn supply
  of one-day and few-day hosts, weekly hosts, recurrent hosts that
  return after months, and heavy campaign hosts serving for months
  before the operation rotates to fresh infrastructure.

Host *counts* are sized so that a realistic number of each archetype is
active on any given day (the paper's ~3k IPs / 50 %-one-day mix implies
roughly 1.5 fresh one-day hosts per day); what the analyses observe is
the subset of hosts that sessions actually touch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum

from repro.config import SimulationConfig
from repro.net.asn import ASRecord, ASType
from repro.net.ipv4 import int_to_ip
from repro.net.population import BasePopulation
from repro.util.rng import RngTree, WeightedTable


class HostArchetype(str, Enum):
    """Lifetime classes of storage hosts (drives Figure 9's shape)."""

    EPHEMERAL = "ephemeral"      # one day, never again
    SHORT = "short"              # a few consecutive days
    WEEKLY = "weekly"            # one to three weeks
    RECURRENT = "recurrent"      # bursts repeating after months
    LONGLIVED = "longlived"      # heavy month-scale campaign hosts


@dataclass(frozen=True)
class ArchetypePlan:
    """How many hosts of an archetype exist and how hot each runs."""

    archetype: HostArchetype
    per_window_day: float        # hosts per day of observation window
    minimum: int
    weight: float                # per-active-day selection intensity
    as_group_size: int           # hosts sharing one AS (temporal chunks)


#: The host-population plan (tuned against Figures 8, 9 and 17).
ARCHETYPE_PLAN: tuple[ArchetypePlan, ...] = (
    ArchetypePlan(HostArchetype.EPHEMERAL, 0.90, 60, 2.5, 3),
    ArchetypePlan(HostArchetype.SHORT, 0.18, 40, 2.5, 2),
    ArchetypePlan(HostArchetype.WEEKLY, 0.06, 20, 2.5, 1),
    ArchetypePlan(HostArchetype.RECURRENT, 0.05, 16, 4.0, 1),
    ArchetypePlan(HostArchetype.LONGLIVED, 0.012, 10, 4.0, 1),
)

#: Target session-weighted AS-age proportions (Figure 8(a)).
AGE_PROPORTIONS = (0.42, 0.33, 0.25)
#: Target session-weighted AS-size proportions (Figure 8(b)).
SIZE_PROPORTIONS = (0.21, 0.31, 0.48)


@dataclass
class StorageHost:
    """One IP serving malicious files, with its activity schedule."""

    ip: str
    asn: int
    archetype: HostArchetype
    intervals: list[tuple[date, date]]
    traffic_weight: float

    def url_for(self, filename: str, scheme: str = "http") -> str:
        if scheme == "tftp":
            return f"tftp://{self.ip}/{filename}"
        if scheme == "ftp":
            return f"ftp://{self.ip}/{filename}"
        return f"{scheme}://{self.ip}/{filename}"


class StorageInfrastructure:
    """Builds and serves the malware-storage host population."""

    def __init__(
        self,
        config: SimulationConfig,
        population: BasePopulation,
        rng_tree: RngTree,
    ) -> None:
        self.config = config
        self._population = population
        self._tree = rng_tree.child("storage")
        rng = self._tree.child("build").rand()
        self.hosting_as_fraction = 358 / 388
        self.down_as_fraction = 36 / 388
        self.ases: list[ASRecord] = []
        self.hosts: list[StorageHost] = []
        self._build(rng)
        self._calendar = self._build_calendar()
        self._day_tables = {
            day: _traffic_table(hosts) for day, hosts in self._calendar.items()
        }
        self._fallback_table = _traffic_table(
            [host for host in self.hosts if host.archetype == HostArchetype.LONGLIVED]
            or self.hosts
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self, rng: random.Random) -> None:
        window_days = (self.config.end - self.config.start).days + 1
        for plan in ARCHETYPE_PLAN:
            count = max(plan.minimum, int(round(plan.per_window_day * window_days)))
            schedules = sorted(
                (self._schedule(rng, plan.archetype) for _ in range(count)),
                key=lambda intervals: intervals[0][0],
            )
            ages = self._stratified(rng, count, self._age_offset_days)
            sizes = self._stratified(rng, count, self._as_size)
            index = 0
            while index < count:
                group = schedules[index : index + plan.as_group_size]
                record = self._create_as(
                    rng,
                    first_use=group[0][0][0],
                    last_use=max(iv[-1][1] for iv in group),
                    age_offset=ages[index],
                    n_slash24=sizes[index],
                )
                for intervals in group:
                    self._add_host(rng, record, plan, intervals)
                index += len(group)

    def _build_calendar(self) -> dict[date, list[StorageHost]]:
        """Day -> hosts active that day, in ``self.hosts`` order, from
        one pass over every host's intervals."""
        calendar: dict[date, list[StorageHost]] = {}
        one_day = timedelta(days=1)
        for host in self.hosts:
            for start, end in host.intervals:
                day = start
                while day <= end:
                    active = calendar.setdefault(day, [])
                    if not active or active[-1] is not host:
                        active.append(host)
                    day += one_day
        return calendar

    #: The appendix-E anomaly: a late-2023 wave of storage ASes labelled
    #: "Other" (unlabelled/corporate) that on manual inspection all
    #: provide hosting services.
    OTHER_SPIKE = (date(2023, 10, 1), date(2024, 1, 15))
    OTHER_SPIKE_PROBABILITY = 0.45

    def _create_as(
        self,
        rng: random.Random,
        first_use: date,
        last_use: date,
        age_offset: int,
        n_slash24: int,
    ) -> ASRecord:
        spike_start, spike_end = self.OTHER_SPIKE
        if (
            spike_start <= first_use <= spike_end
            and rng.random() < self.OTHER_SPIKE_PROBABILITY
        ):
            as_type = ASType.OTHER
        elif rng.random() < self.hosting_as_fraction:
            as_type = ASType.HOSTING
        else:
            as_type = ASType.ISP_NSP
        withdrawn = None
        if rng.random() < self.down_as_fraction:
            withdrawn = max(
                last_use + timedelta(days=rng.randrange(1, 60)),
                self.config.end - timedelta(days=rng.randrange(1, 120)),
            )
        record = self._population.registry.create(
            as_type=as_type,
            registered=first_use - timedelta(days=age_offset),
            n_slash24=n_slash24,
            name=f"AS-STORAGE-{len(self.ases)}",
            withdrawn=withdrawn,
        )
        self.ases.append(record)
        return record

    def _add_host(
        self,
        rng: random.Random,
        record: ASRecord,
        plan: ArchetypePlan,
        intervals: list[tuple[date, date]],
    ) -> None:
        taken = getattr(self, "_taken_ips", None)
        if taken is None:
            taken = self._taken_ips = set()
        address = int_to_ip(record.random_ip(rng))
        while address in taken:
            address = int_to_ip(record.random_ip(rng))
        taken.add(address)
        self.hosts.append(
            StorageHost(
                ip=address,
                asn=record.asn,
                archetype=plan.archetype,
                intervals=intervals,
                traffic_weight=plan.weight,
            )
        )

    @staticmethod
    def _stratified(rng: random.Random, count: int, sampler) -> list:
        """Per-archetype stratified draws so every archetype's hosts
        follow the target marginals exactly (small-sample safe)."""
        values = [sampler(rng, stratum_point=(i + 0.5) / count) for i in range(count)]
        rng.shuffle(values)
        return values

    @staticmethod
    def _age_offset_days(rng: random.Random, stratum_point: float) -> int:
        """AS age at first abuse: >35 % under a year, >70 % under five
        (Figure 8(a)); 'young' skews low to absorb within-campaign
        drift of long-running hosts."""
        young, mid, _ = AGE_PROPORTIONS
        if stratum_point < young:
            return rng.randrange(20, 300)
        if stratum_point < young + mid:
            return rng.randrange(365, 5 * 365)
        return rng.randrange(5 * 365, 20 * 365)

    @staticmethod
    def _as_size(rng: random.Random, stratum_point: float) -> int:
        """Announced /24s: ~20 % exactly one, ~50 % under fifty
        (Figure 8(b))."""
        single, small, _ = SIZE_PROPORTIONS
        if stratum_point < single:
            return 1
        if stratum_point < single + small:
            return rng.randrange(2, 50)
        return int(round(math.exp(rng.uniform(math.log(50), math.log(1024)))))

    def _schedule(
        self, rng: random.Random, archetype: HostArchetype
    ) -> list[tuple[date, date]]:
        start, end = self.config.start, self.config.end
        window_days = (end - start).days

        def random_day(margin: int = 0) -> date:
            return start + timedelta(days=rng.randrange(max(1, window_days - margin)))

        if archetype == HostArchetype.EPHEMERAL:
            day = random_day()
            # some "one-day" IPs resurface after months of dormancy —
            # the section-7 long-interval reuse the paper highlights
            if rng.random() < 0.15:
                comeback = day + timedelta(days=rng.randint(185, 420))
                if comeback <= end:
                    return [(day, day), (comeback, comeback)]
            return [(day, day)]
        if archetype == HostArchetype.SHORT:
            first = random_day(margin=7)
            first_end = first + timedelta(days=rng.randint(1, 5))
            if rng.random() < 0.25:
                comeback = first_end + timedelta(days=rng.randint(185, 420))
                if comeback <= end:
                    return [
                        (first, first_end),
                        (comeback, min(end, comeback + timedelta(days=rng.randint(1, 4)))),
                    ]
            return [(first, first_end)]
        if archetype == HostArchetype.WEEKLY:
            first = random_day(margin=25)
            return [(first, first + timedelta(days=rng.randint(6, 21)))]
        if archetype == HostArchetype.RECURRENT:
            intervals: list[tuple[date, date]] = []
            cursor = start + timedelta(days=rng.randrange(90))
            while cursor < end:
                burst_end = min(end, cursor + timedelta(days=rng.randint(2, 9)))
                intervals.append((cursor, burst_end))
                cursor = burst_end + timedelta(days=rng.randint(120, 300))
            return intervals or [(start, start + timedelta(days=3))]
        # LONGLIVED: a heavy campaign host serving for three to nine
        # months before the operation rotates elsewhere.
        duration = rng.randint(90, 270)
        first = start + timedelta(
            days=rng.randrange(max(1, window_days - duration))
        )
        return [(first, min(end, first + timedelta(days=duration)))]

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def active_hosts(self, day: date) -> list[StorageHost]:
        """Hosts serving on ``day``, in ``self.hosts`` order."""
        return self._calendar.get(day, [])

    def pick_host(self, rng: random.Random, day: date) -> StorageHost:
        """Traffic-weighted choice among hosts active on ``day``.

        Falls back to the campaign hosts if the calendar has a hole
        (attackers always have somewhere to host).
        """
        if self.active_hosts(day):
            return self._day_tables[day].pick(rng)
        return self._fallback_table.pick(rng)


def _traffic_table(hosts: list[StorageHost]) -> WeightedTable:
    return WeightedTable((host, host.traffic_weight) for host in hosts)
