"""The fault plan: what breaks, where, and when — all from the seed.

A :class:`FaultProfile` is declarative configuration (it lives on
:class:`~repro.config.SimulationConfig`); :func:`compile_fault_plan`
turns it into a concrete :class:`FaultPlan` — per-sensor down-days and
fleet-wide outage ranges — using streams derived from the master
:class:`~repro.util.rng.RngTree`, so the same seed always breaks the
same things on the same days.

This module must not import :mod:`repro.config` (the config module
imports *us* to embed the profile).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import Iterable, Sequence

from repro.util import preset
from repro.util.rng import RngTree, poisson

#: The honeynet maintenance outage: no sessions recorded for 48 hours
#: on October 8-9, 2023 (paper section 3.3).
PAPER_OUTAGE_START = date(2023, 10, 8)
PAPER_OUTAGE_END = date(2023, 10, 9)


@dataclass(frozen=True)
class OutageWindow:
    """An interval (inclusive dates) with no data collection."""

    start: date
    end: date

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError("outage start must not be after end")

    def covers(self, day: date) -> bool:
        return self.start <= day <= self.end

    def ordinals(self) -> tuple[int, int]:
        """The window as an inclusive ``(start, end)`` ordinal range."""
        return (self.start.toordinal(), self.end.toordinal())

    @property
    def days(self) -> int:
        return (self.end - self.start).days + 1


#: The one outage the paper reports, as a reusable window.
PAPER_OUTAGE = OutageWindow(PAPER_OUTAGE_START, PAPER_OUTAGE_END)


@dataclass(frozen=True)
class TransportFaults:
    """Loss model for the honeypot→collector delivery path.

    Each delivery attempt independently fails with
    ``failure_probability`` (transient ingest failure: the collector was
    unreachable) or ``corruption_probability`` (the record arrived
    truncated/corrupt and failed its checksum).  Failed attempts are
    retried with exponential backoff up to ``max_attempts``; a record
    that exhausts its attempts is dead-lettered.  After a successful
    store the sensor may re-transmit the same record
    (``duplicate_probability`` — a lost ack under at-least-once
    delivery), which the collector deduplicates by session id.
    """

    failure_probability: float = 0.0
    corruption_probability: float = 0.0
    duplicate_probability: float = 0.0
    max_attempts: int = 1
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 30.0

    def __post_init__(self) -> None:
        for name in (
            "failure_probability",
            "corruption_probability",
            "duplicate_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.failure_probability + self.corruption_probability >= 1.0:
            raise ValueError("combined attempt-failure probability must be < 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")

    @property
    def lossless(self) -> bool:
        """True when the channel can neither fail nor duplicate."""
        return (
            self.failure_probability == 0.0
            and self.corruption_probability == 0.0
            and self.duplicate_probability == 0.0
        )


@dataclass(frozen=True)
class FloodFaults:
    """Overload model: bursty scanning floods and bounded ingest.

    Real honeynet arrivals are heavy-tailed: most days are steady scan
    background, but some days a scanning campaign multiplies the volume.
    This knob set injects those days and bounds what the collector may
    absorb:

    * ``burst_probability`` — each calendar day independently hosts a
      scan flood with this probability (seeded per day ordinal, so the
      same seed floods the same days in every run).
    * ``burst_sessions`` — extra scanner no-op sessions injected on a
      flood day, spread across the fleet.
    * ``daily_session_budget`` — fleet-wide admission budget: how many
      records the collector may admit per calendar day before the
      load-shedding policy engages (``None`` disables admission control
      entirely — the pre-overload pipeline, byte for byte).
    * ``sensor_queue_capacity`` — bounded per-sensor deferral queue for
      over-budget records worth keeping; overflow is shed.
    * ``shed_probability`` — over budget, a command session (priority 1)
      is shed with this probability and deferred otherwise; the decision
      is seeded per session id, so it is independent of delivery order.

    The field is declared with ``repr=False`` on :class:`FaultProfile`
    so an inert flood leaves ``repr(profile)`` — and therefore every
    checkpoint fingerprint written before this knob existed — unchanged;
    an *active* flood is folded into the fingerprint explicitly by
    :func:`repro.faults.checkpoint.config_fingerprint`.
    """

    burst_probability: float = 0.0
    burst_sessions: int = 0
    daily_session_budget: int | None = None
    sensor_queue_capacity: int = 8
    shed_probability: float = 0.5

    def __post_init__(self) -> None:
        for name in ("burst_probability", "shed_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.burst_sessions < 0:
            raise ValueError("burst_sessions must be non-negative")
        if self.daily_session_budget is not None and self.daily_session_budget < 0:
            raise ValueError("daily_session_budget must be non-negative")
        if self.sensor_queue_capacity < 0:
            raise ValueError("sensor_queue_capacity must be non-negative")

    @property
    def inert(self) -> bool:
        """True when neither bursts nor admission control can engage."""
        return (
            (self.burst_probability == 0.0 or self.burst_sessions == 0)
            and self.daily_session_budget is None
        )

    @property
    def floods(self) -> bool:
        """True when flood days can inject extra arrivals."""
        return self.burst_probability > 0.0 and self.burst_sessions > 0

    @property
    def gates(self) -> bool:
        """True when the admission budget is bounded."""
        return self.daily_session_budget is not None

    @classmethod
    def from_name(cls, name: str) -> "FloodFaults":
        """Resolve a named flood preset (CLI ``--flood-profile``)."""
        return preset(FLOOD_PRESETS, name, "flood profile")


#: The flood presets.  ``off`` is the inert default; ``burst`` floods
#: roughly one day in four past a budget the steady background rarely
#: reaches, so shedding concentrates on flood days; ``storm`` floods most
#: days against a budget *below* the bench-scale background volume and a
#: shallow queue, so every day over-runs — exercising deferral of
#: state-carrying sessions as well as aggressive shedding.
FLOOD_PRESETS = {
    "off": FloodFaults(),
    "burst": FloodFaults(
        burst_probability=0.3,
        burst_sessions=500,
        daily_session_budget=200,
        sensor_queue_capacity=8,
        shed_probability=0.4,
    ),
    "storm": FloodFaults(
        burst_probability=0.7,
        burst_sessions=1500,
        daily_session_budget=60,
        sensor_queue_capacity=4,
        shed_probability=0.7,
    ),
}


@dataclass(frozen=True)
class IntegrityFaults:
    """Corruption model for persisted artifacts.

    Where :class:`TransportFaults` loses records in flight, these faults
    damage what has already been *persisted* — the failure modes a
    long-running deployment meets on disk rather than on the wire:

    * ``checkpoint_corruption_probability`` — each saved checkpoint file
      is bit-flipped or truncated with this probability (resume must
      fall back to the newest valid generation).
    * ``line_mangle_probability`` — each exported session-log line is
      mangled (character flip or truncation) with this probability; the
      per-line checksum quarantines it on read.
    * ``line_duplicate_probability`` — each exported line is written
      twice (at-least-once delivery of the log shipper); the sequence
      number dedups it losslessly.
    * ``line_reorder_probability`` — adjacent exported lines are swapped
      with this probability (out-of-order delivery); the sequence number
      restores the order losslessly.
    * ``index_corruption_probability`` — each built ``index.sqlite``
      artifact (:mod:`repro.store`) is damaged with this probability:
      a bit-flipped page, a truncated file, or rows silently dropped so
      the index desyncs from its shards.  The index is derived data, so
      consumers must degrade to the shard-scan path and ``repro verify
      --rebuild-index`` must repair it — never a crash, never a wrong
      answer.

    All decisions are drawn from seed-derived streams keyed by artifact
    and save event, never from the simulation's record streams, so
    enabling corruption cannot change what a fault-free run would have
    produced.  The index field is declared ``repr=False``: index damage
    only degrades queries to the scan path — the recovered output is
    byte-identical — so it stays out of ``repr(profile)`` and
    therefore out of checkpoint fingerprints.

    ``worker_crash_probability`` is a retired knob kept as the constant
    0.0: it is part of ``repr(profile)``, which
    :func:`~repro.faults.checkpoint.config_fingerprint` hashes, so
    dropping the field would orphan every existing checkpoint.
    """

    checkpoint_corruption_probability: float = 0.0
    line_mangle_probability: float = 0.0
    line_duplicate_probability: float = 0.0
    line_reorder_probability: float = 0.0
    worker_crash_probability: float = field(default=0.0, init=False)
    index_corruption_probability: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        for name in (
            "checkpoint_corruption_probability",
            "line_mangle_probability",
            "line_duplicate_probability",
            "line_reorder_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        # A certain index corruption is a legitimate schedule — it
        # forces the scan fallback every time — so it admits 1.0.
        value = self.index_corruption_probability
        if not 0.0 <= value <= 1.0:
            raise ValueError(
                f"index_corruption_probability must be in [0, 1], got {value}"
            )
        if self.line_mangle_probability + self.line_duplicate_probability >= 1.0:
            raise ValueError("combined per-line corruption probability must be < 1")

    @property
    def inert(self) -> bool:
        """True when no corruption can ever be injected."""
        return (
            self.checkpoint_corruption_probability == 0.0
            and self.line_mangle_probability == 0.0
            and self.line_duplicate_probability == 0.0
            and self.line_reorder_probability == 0.0
            and self.index_corruption_probability == 0.0
        )

    @property
    def corrupts_lines(self) -> bool:
        return (
            self.line_mangle_probability > 0.0
            or self.line_duplicate_probability > 0.0
            or self.line_reorder_probability > 0.0
        )


@dataclass(frozen=True)
class FaultProfile:
    """Declarative fault configuration for one simulation run.

    Attributes:
        name: label used by the CLI and reports.
        outages: fleet-wide collection outages (inclusive date windows).
            Generalizes the hardcoded October 2023 window; the default
            profile carries exactly that one.
        crashes_per_sensor_year: expected number of crash/restart events
            per honeypot per year of observation (Poisson).
        crash_downtime_mean_days: mean downtime per crash, in days
            (exponential, rounded up to at least one full day — faults
            apply at day granularity, like the outage windows).
        transport: loss model for the collection path.
        integrity: corruption model for persisted artifacts
            (:class:`IntegrityFaults`).
        flood: overload model — bursty scan floods plus the admission
            budget that sheds them (:class:`FloodFaults`).  Orthogonal
            to the named profiles: the CLI composes it onto any of them
            via ``--flood-profile``.  Declared ``repr=False`` so the
            inert default keeps ``repr(profile)`` — and the checkpoint
            fingerprints derived from it — byte-identical to the
            pre-overload format.
    """

    name: str = "paper"
    outages: tuple[OutageWindow, ...] = (PAPER_OUTAGE,)
    crashes_per_sensor_year: float = 0.0
    crash_downtime_mean_days: float = 2.0
    transport: TransportFaults = field(default_factory=TransportFaults)
    integrity: IntegrityFaults = field(default_factory=IntegrityFaults)
    flood: FloodFaults = field(default_factory=FloodFaults, repr=False)

    def __post_init__(self) -> None:
        if self.crashes_per_sensor_year < 0:
            raise ValueError("crashes_per_sensor_year must be non-negative")
        if self.crash_downtime_mean_days <= 0:
            raise ValueError("crash_downtime_mean_days must be positive")

    @property
    def has_churn(self) -> bool:
        return self.crashes_per_sensor_year > 0

    @classmethod
    def none(cls) -> "FaultProfile":
        """A perfect instrument: no outages, no churn, lossless path."""
        return cls(name="none", outages=())

    @classmethod
    def paper(cls) -> "FaultProfile":
        """Exactly the paper's deployment: the one 48-hour outage.

        This is the default profile; it reproduces the pre-fault-model
        pipeline byte for byte.
        """
        return cls()

    @classmethod
    def stress(cls) -> "FaultProfile":
        """A deliberately unreliable deployment for robustness testing.

        Adds a second fleet outage, realistic sensor churn (about two
        crashes per sensor-year, ~2 days down each) and a lossy
        collection path with retries.  Aggregate loss stays in the
        low single-digit percents so the paper's distributional
        findings must still hold.

        On top of the loss model, the integrity knobs corrupt what gets
        *persisted*: one saved checkpoint in four is bit-flipped or
        truncated, a few percent of exported log lines are mangled,
        duplicated or reordered, and one built artifact index in four is
        damaged or desynced — exercising generation fallback,
        quarantine-and-recover and the index scan-fallback on every
        stress-profile test.
        """
        return cls(
            name="stress",
            outages=(
                PAPER_OUTAGE,
                OutageWindow(date(2022, 6, 14), date(2022, 6, 15)),
            ),
            crashes_per_sensor_year=2.0,
            crash_downtime_mean_days=2.0,
            transport=TransportFaults(
                failure_probability=0.04,
                corruption_probability=0.01,
                duplicate_probability=0.03,
                max_attempts=4,
            ),
            integrity=IntegrityFaults(
                checkpoint_corruption_probability=0.25,
                line_mangle_probability=0.02,
                line_duplicate_probability=0.02,
                line_reorder_probability=0.02,
                index_corruption_probability=0.25,
            ),
        )

    @classmethod
    def from_name(cls, name: str) -> "FaultProfile":
        """Resolve a named profile (CLI ``--fault-profile``)."""
        return preset(FAULT_PRESETS, name, "fault profile")


#: The fault profiles, by name.
FAULT_PRESETS = {
    "none": FaultProfile.none(),
    "paper": FaultProfile.paper(),
    "stress": FaultProfile.stress(),
}


@dataclass(frozen=True)
class SensorDowntime:
    """One crash/restart window of one honeypot (inclusive dates)."""

    honeypot_id: str
    start: date
    end: date

    @property
    def days(self) -> int:
        return (self.end - self.start).days + 1


@dataclass(frozen=True)
class FaultPlan:
    """A compiled, concrete fault schedule for one run."""

    profile: FaultProfile
    start: date
    end: date
    honeypot_ids: tuple[str, ...]
    downtimes: tuple[SensorDowntime, ...]
    #: ``(honeypot_id, day.toordinal())`` pairs on which that sensor
    #: recorded nothing.  The hot-path membership set for the collector.
    sensor_down_days: frozenset[tuple[str, int]]

    @property
    def outage_days(self) -> int:
        """Fleet-wide dark days that intersect the window."""
        return sum(
            1
            for window in self.profile.outages
            for offset in range(window.days)
            if self.start <= window.start + timedelta(days=offset) <= self.end
        )

    @property
    def sensor_down_day_count(self) -> int:
        return len(self.sensor_down_days)


def _sensor_downtimes(
    profile: FaultProfile,
    honeypot_ids: Sequence[str],
    start: date,
    end: date,
    tree: RngTree,
) -> list[SensorDowntime]:
    """Sample every sensor's crash windows from per-sensor streams."""
    window_days = (end - start).days + 1
    expected = profile.crashes_per_sensor_year * window_days / 365.25
    downtimes: list[SensorDowntime] = []
    for honeypot_id in honeypot_ids:
        rng = tree.child("churn", honeypot_id).rand()
        for _ in range(poisson(rng, expected)):
            first = start + timedelta(days=rng.randrange(window_days))
            duration = max(
                1, round(rng.expovariate(1.0 / profile.crash_downtime_mean_days))
            )
            last = min(end, first + timedelta(days=duration - 1))
            downtimes.append(SensorDowntime(honeypot_id, first, last))
    return downtimes


def compile_fault_plan(
    profile: FaultProfile,
    honeypot_ids: Iterable[str],
    start: date,
    end: date,
    tree: RngTree,
) -> FaultPlan:
    """Turn a profile into the concrete schedule for one run.

    Deterministic: the same ``(profile, honeypot_ids, window, tree)``
    always yields the same plan, independent of call order elsewhere.
    """
    ids = tuple(honeypot_ids)
    downtimes: list[SensorDowntime] = []
    if profile.has_churn:
        downtimes = _sensor_downtimes(profile, ids, start, end, tree)
    down_days = frozenset(
        (downtime.honeypot_id, downtime.start.toordinal() + offset)
        for downtime in downtimes
        for offset in range(downtime.days)
    )
    return FaultPlan(
        profile=profile,
        start=start,
        end=end,
        honeypot_ids=ids,
        downtimes=tuple(downtimes),
        sensor_down_days=down_days,
    )
