"""The supervised stream engine — and the batch day-loop as its replay.

``repro.stream`` refactors the orchestrator's serial day loop into an
event stream: sensors (the honeypots inside
:func:`~repro.attackers.orchestrator.simulate_day`) *push* each closed
session into the pipeline, where it crosses the existing
admission/transport layer into the incremental analysis core — online
dedup via the :class:`~repro.honeynet.collector.Collector`, a rolling
conservation/coverage ledger audited every day, and live
``overload.*`` gauges.

Around that pipeline sits the supervision layer
(:mod:`repro.stream.supervisor`): per-stage circuit breakers with
seeded probe schedules, a bounded inter-stage queue whose depth feeds
backpressure into the admission controller, heartbeat monitoring
against soft and hard deadlines, the
``full → analysis-deferred → shed-only`` degraded-mode ladder, and
crash recovery that resumes the stream — supervision state included —
from the newest valid checkpoint generation.

**Batch mode is a replay of the stream.**  ``run_simulation`` calls
:func:`run_stream` under :meth:`StreamPolicy.replay`; the day-boundary
sequence (simulate → drain gate → flush telemetry → checkpoint cadence
→ stop check) is this module's loop, the only day loop in the
codebase.  On the fault-free path every push is pumped
synchronously — queue depth never exceeds one, delivery order equals
the batch loop's — which is why stream digests, accounting and
checkpoint bytes are byte-identical to the batch engine
(``tests/test_stream.py`` pins the matrix).

All supervision timing runs on a *virtual* clock that advances
:data:`TICK_S` per pushed event; stall durations, probe backoffs,
heartbeat deadlines and clock skews are measured on it, never on wall
time, so breaker and ladder timelines are a pure function of
``(seed, policy)``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from repro import telemetry
from repro.attackers.orchestrator import (
    DEFAULT_CHECKPOINT_EVERY_DAYS,
    SimulationResult,
    SimulationSubstrate,
    _export_store,
    _finish_result,
    _resume_state,
    build_substrate,
    simulate_day,
)
from repro.config import SimulationConfig
from repro.faults.checkpoint import save_checkpoint
from repro.faults.stream import INERT_DAY_PLAN, compile_day_plan
from repro.honeynet.collector import Collector
from repro.stream.breaker import CLOSED, BreakerTransition
from repro.stream.policy import StreamPolicy
from repro.stream.queues import LEVEL_CRITICAL
from repro.stream.supervisor import (
    MODE_ANALYSIS_DEFERRED,
    MODE_SHED_ONLY,
    STAGE_ANALYSIS,
    STAGE_INGEST,
    STAGES,
    BEAT_HARD,
    ModeTransition,
    StreamSupervisor,
)
from repro.util.timeutils import days_between, month_key

# The run loop's progress messages keep their historical logger name:
# this module IS the serial simulation engine (batch = replay).
logger = logging.getLogger("repro.simulation")

#: Virtual seconds the stream clock advances per pushed event.
TICK_S = 0.05


class StreamIntegrityError(RuntimeError):
    """The rolling conservation ledger caught an accounting violation."""


@dataclass
class RollingLedger:
    """Per-day conservation/coverage audit over the collection boundary.

    Every day boundary re-checks the conservation law (and, with an
    admission gate attached, the extended law
    ``admitted == stored + deduplicated``) and reads the collector's
    coverage — a violation raises :class:`StreamIntegrityError` on the
    day it happens, not at the end of a month-long run.
    """

    days: int = 0
    #: ISO date of the newest audited boundary, or None before the first.
    last_day: str | None = None
    #: Stored fraction of everything generated, as of the newest audit.
    coverage_rate: float = 1.0

    def audit(self, collector: Collector, day: date) -> None:
        if not collector.accounting_balanced():
            raise StreamIntegrityError(
                f"conservation law violated at day boundary {day}: "
                f"{collector.accounting()}"
            )
        stored = len(collector.sessions)
        if collector.admission is not None:
            if collector.admitted != stored + collector.deduplicated:
                raise StreamIntegrityError(
                    "extended conservation law violated at day boundary "
                    f"{day}: admitted={collector.admitted} != "
                    f"stored={stored} + deduplicated={collector.deduplicated}"
                )
        generated = collector.generated
        self.coverage_rate = stored / generated if generated else 1.0
        self.days += 1
        self.last_day = day.isoformat()

    def verdict(self) -> dict:
        """The latest day-boundary audit verdict, as the status endpoint
        and checkpoint report it.

        ``balanced`` is definitionally True on any live ledger — a
        violation raises :class:`StreamIntegrityError` at the boundary
        it happens, so a ledger you can still ask is one whose every
        audited day passed.
        """
        return {
            "days": self.days,
            "balanced": True,
            "coverage_rate": round(self.coverage_rate, 6),
            "last_day": self.last_day,
        }

    def snapshot(self) -> dict:
        """Checkpoint payload: enough to resume audit continuity."""
        return {
            "days": self.days,
            "last_day": self.last_day,
            "coverage_rate": self.coverage_rate,
        }

    def restore(self, payload: dict) -> None:
        self.days = int(payload["days"])
        last_day = payload.get("last_day")
        self.last_day = str(last_day) if last_day is not None else None
        self.coverage_rate = float(payload["coverage_rate"])


@dataclass
class StreamReport:
    """Supervision summary attached to a supervised run's result."""

    mode: str
    transitions: list[ModeTransition]
    breaker_transitions: dict[str, list[BreakerTransition]]
    days: int
    events: int
    queue_peak_depth: int
    forced_drains: int
    stalls: int
    partition_buffered: int
    partition_replayed: int
    analysis_observed: int
    analysis_deferred: int
    analysis_errors: int
    heartbeat_soft_breaches: int
    heartbeat_hard_breaches: int
    skew_days: int
    ledger_days: int
    coverage_rate: float
    #: Latest :meth:`RollingLedger.verdict` at run end.
    ledger_verdict: dict | None = None


class StreamSubstrate:
    """One stream run's full state: the simulation substrate plus the
    supervision plumbing (queue, breakers, heartbeats, fault plans,
    virtual clock) wrapped around it."""

    def __init__(
        self,
        base: SimulationSubstrate,
        policy: StreamPolicy,
        publisher=None,
    ) -> None:
        self.base = base
        self.policy = policy
        self.collector = base.fresh_collector()
        self.channel = base.fresh_channel(self.collector)
        self.ledger = RollingLedger()
        #: Optional :class:`repro.service.SnapshotPublisher` — a pure
        #: observer handed each day boundary (duck-typed here so the
        #: stream layer never imports the service layer above it).
        self.publisher = publisher
        self.supervisor: StreamSupervisor | None = None
        self._fault_tree = None
        self._sensor_ids: tuple[str, ...] = ()
        if policy.supervised:
            tree = base.tree.child("stream")
            self.supervisor = StreamSupervisor.build(
                tree, queue_capacity=policy.queue_capacity
            )
            self._sensor_ids = tuple(
                sorted(
                    honeypot.honeypot_id
                    for honeypot in base.honeynet.honeypots
                )
            )
            if not policy.faults.inert:
                self._fault_tree = tree.child("faults")
        # virtual clock + per-day fault state
        self._now = 0.0
        self._ordinal = 0
        self._event = 0
        self._event_total = 0
        self._days_seen = 0
        self._stall_at: int | None = None
        self._stall_s = 0.0
        self._stall_until: float | None = None
        self._error_at: int | None = None
        self._error_left = 0
        self._skew = 0.0
        self._partitioned: frozenset[str] = frozenset()
        self._partition_buffer: list = []
        self._pressure_applied = 0
        # report accumulators
        self._stalls = 0
        self._partition_buffered = 0
        self._partition_replayed = 0
        self._analysis_observed = 0
        self._analysis_deferred = 0
        self._analysis_errors = 0
        self._skew_days = 0
        self._tel_flushed: dict[str, int] = {}

    # ------------------------------------------------------------------
    # event pipeline
    # ------------------------------------------------------------------
    def _push(self, record) -> bool:
        """Sensor-side entry: one closed session enters the stream.

        Healthy path: synchronous pump — process immediately, in
        arrival order, exactly like the batch loop's direct delivery.
        Under a consumer stall the record joins the bounded queue; a
        full queue force-drains its oldest entry under critical
        backpressure so memory stays bounded and order stays FIFO.
        """
        if self._partitioned and record.honeypot_id in self._partitioned:
            self._partition_buffer.append(record)
            self._partition_buffered += 1
            return False
        self._event += 1
        event = self._event
        self._now += TICK_S
        now = self._now
        day = self._ordinal
        if self._stall_at is not None and event >= self._stall_at:
            self._stall_at = None
            self._stall_until = now + self._stall_s
            self._stalls += 1
        queue = self.supervisor.queue
        if self._stall_until is not None:
            if now >= self._stall_until:
                self._stall_until = None
            else:
                if queue.full:
                    self._on_queue_pressure(day, event)
                    queue.forced_drains += 1
                    self._process(queue.pop())
                queue.push(record)
                self._on_queue_pressure(day, event)
                self._check_heartbeats(now, day, event)
                return False
        if queue.depth:
            # The stall just lifted: the backlog is older than this
            # record, so drain it first to keep delivery FIFO.
            self._pump(day, event)
        return self._process(record)

    def _pump(self, day: int, event: int) -> None:
        """Drain the inter-stage queue FIFO through the consumer."""
        queue = self.supervisor.queue
        while queue.depth:
            self._process(queue.pop())
        self._on_queue_pressure(day, event)

    def _process(self, record) -> bool:
        """Consumer side: ingest stage (deliver) then analysis stage."""
        supervisor = self.supervisor
        now = self._now
        day = self._ordinal
        event = self._event
        stored = self.channel.deliver(record)
        ingest = supervisor.breakers[STAGE_INGEST]
        if ingest.state != CLOSED and ingest.allow(now, day, event):
            # the half-open probe: a delivery that completed proves the
            # ingest path healthy again
            ingest.record_success(now, day, event)
            if ingest.state == CLOSED:
                supervisor.recover("ingest-probe-succeeded", day, event)
                self._sync_admission()
        heartbeat = supervisor.heartbeat
        heartbeat.beat(STAGE_INGEST, now - self._skew)
        if stored:
            self._analysis_stage(now, day, event)
        heartbeat.beat(STAGE_ANALYSIS, now - self._skew)
        self._check_heartbeats(now, day, event)
        return stored

    def _analysis_stage(self, now: float, day: int, event: int) -> None:
        supervisor = self.supervisor
        if supervisor.mode == MODE_SHED_ONLY:
            # shed-only outranks analysis: all analysis work is deferred
            self._analysis_deferred += 1
            return
        breaker = supervisor.breakers[STAGE_ANALYSIS]
        if not breaker.allow(now, day, event):
            self._analysis_deferred += 1
            return
        if (
            self._error_left > 0
            and self._error_at is not None
            and event >= self._error_at
        ):
            self._error_left -= 1
            self._analysis_errors += 1
            breaker.record_failure(now, day, event, reason="analysis-error")
            if breaker.state != CLOSED:
                supervisor.escalate(
                    MODE_ANALYSIS_DEFERRED, "analysis-breaker-open",
                    day, event,
                )
            return
        breaker.record_success(now, day, event)
        if breaker.state == CLOSED:
            supervisor.recover("analysis-probe-succeeded", day, event)
        self._analysis_observed += 1

    # ------------------------------------------------------------------
    # backpressure and heartbeats
    # ------------------------------------------------------------------
    def _on_queue_pressure(self, day: int, event: int) -> None:
        """React to the queue's current depth level."""
        supervisor = self.supervisor
        if (
            supervisor.queue.level() == LEVEL_CRITICAL
            and supervisor.mode != MODE_SHED_ONLY
        ):
            supervisor.breakers[STAGE_INGEST].trip(
                self._now, day, event, "queue-critical"
            )
            supervisor.escalate(MODE_SHED_ONLY, "queue-critical", day, event)
        self._sync_admission()

    def _sync_admission(self) -> None:
        """Propagate the effective backpressure level into the gate."""
        supervisor = self.supervisor
        level = supervisor.queue.level()
        if supervisor.mode == MODE_SHED_ONLY:
            level = LEVEL_CRITICAL
        if level != self._pressure_applied:
            self._pressure_applied = level
            admission = self.collector.admission
            if admission is not None:
                admission.apply_backpressure(level)

    def _check_heartbeats(self, now: float, day: int, event: int) -> None:
        supervisor = self.supervisor
        for stage in STAGES:
            if supervisor.heartbeat.check(stage, now) == BEAT_HARD:
                supervisor.breakers[stage].trip(
                    now, day, event, "heartbeat-hard"
                )
                if stage == STAGE_INGEST:
                    supervisor.escalate(
                        MODE_SHED_ONLY, "heartbeat-hard", day, event
                    )
                    self._sync_admission()
                else:
                    supervisor.escalate(
                        MODE_ANALYSIS_DEFERRED, "heartbeat-hard", day, event
                    )

    # ------------------------------------------------------------------
    # day boundaries
    # ------------------------------------------------------------------
    def _begin_day(self, day: date) -> None:
        if self.supervisor is None:
            return
        self._ordinal = day.toordinal()
        self._event = 0
        plan = INERT_DAY_PLAN
        if self._fault_tree is not None:
            plan = compile_day_plan(
                self.policy.faults, self._fault_tree, day, self._sensor_ids
            )
        self._stall_at = plan.stall_at_event
        self._stall_s = plan.stall_virtual_s
        self._stall_until = None
        self._error_at = plan.error_at_event
        self._error_left = plan.error_run
        self._skew = plan.clock_skew_s
        self._partitioned = plan.partitioned
        self._partition_buffer = []
        if self._skew:
            self._skew_days += 1
        self.supervisor.heartbeat.reset(self._now - self._skew)
        self._sync_admission()

    def _drain_day(self, day: date) -> None:
        """Heal partitions and drain the backlog before the day closes.

        Partitioned sensors reconnect and replay their buffered records
        in original arrival order (delayed, never lost); a stall that
        outlived the day's arrivals is waited out on the virtual clock
        so the queue empties before the admission gate drains.
        """
        if self.supervisor is None:
            return
        if self._partition_buffer:
            buffered = self._partition_buffer
            self._partition_buffer = []
            self._partitioned = frozenset()
            self._partition_replayed += len(buffered)
            for record in buffered:
                self._push(record)
        else:
            self._partitioned = frozenset()
        if self._stall_until is not None:
            self._now = max(self._now, self._stall_until)
            self._stall_until = None
        if self.supervisor.queue.depth:
            self._pump(self._ordinal, self._event)
        self._on_queue_pressure(self._ordinal, self._event)

    def _end_day(self, day: date) -> None:
        """Supervision bookkeeping after the collector's day boundary."""
        if self.supervisor is None:
            return
        self.supervisor.recover(
            "day-boundary-recovery", self._ordinal, self._event
        )
        self._sync_admission()
        self.ledger.audit(self.collector, day)
        self._days_seen += 1
        self._event_total += self._event
        telemetry.flush_counts(self._tel_flushed, self._stream_telemetry_state())
        self._emit_gauges()

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _stream_telemetry_state(self) -> list[tuple[str, int]]:
        supervisor = self.supervisor
        queue = supervisor.queue
        heartbeat = supervisor.heartbeat
        return [
            ("stream.days", self._days_seen),
            ("stream.events", self._event_total),
            ("stream.queue.pushed", queue.pushed),
            ("stream.queue.popped", queue.popped),
            ("stream.queue.forced_drains", queue.forced_drains),
            ("stream.stalls", self._stalls),
            ("stream.partition.buffered", self._partition_buffered),
            ("stream.partition.replayed", self._partition_replayed),
            ("stream.analysis.observed", self._analysis_observed),
            ("stream.analysis.deferred", self._analysis_deferred),
            ("stream.analysis.errors", self._analysis_errors),
            ("stream.skew.days", self._skew_days),
            ("stream.ledger.days_balanced", self.ledger.days),
            ("stream.heartbeat.soft_breaches", heartbeat.soft_breaches),
            ("stream.heartbeat.hard_breaches", heartbeat.hard_breaches),
        ]

    def _emit_gauges(self) -> None:
        """Live overload gauges at the day boundary (timing-class data:
        excluded from the comparable telemetry view by design)."""
        collector = self.collector
        telemetry.gauge(
            "overload.queue_peak_depth", self.supervisor.queue.peak_depth
        )
        telemetry.gauge(
            "overload.backpressure_level", self._pressure_applied
        )
        if collector.admission is not None and collector.generated:
            telemetry.gauge(
                "overload.shed_rate",
                collector.shed / collector.generated,
            )
        telemetry.gauge("stream.coverage_rate", self.ledger.coverage_rate)

    # ------------------------------------------------------------------
    # checkpoint glue
    # ------------------------------------------------------------------
    def _stream_state(self) -> dict | None:
        """The supervision state a checkpoint must carry, or None.

        None whenever supervision is in its pristine state — which is
        every checkpoint of a fault-free run — so supervised fault-free
        checkpoints stay byte-identical to batch checkpoints.
        """
        if self.supervisor is None or not self.supervisor.dirty:
            return None
        state = self.supervisor.snapshot()
        state["clock"] = self._now
        state["faults"] = repr(self.policy.faults)
        state["ledger"] = self.ledger.snapshot()
        return state

    def _restore_stream_state(self, state: dict) -> None:
        recorded = state.get("faults")
        if recorded is not None and recorded != repr(self.policy.faults):
            raise ValueError(
                "checkpoint records a different stream fault configuration "
                f"({recorded}) than this run's ({self.policy.faults!r}); "
                "resume with the profile that wrote it"
            )
        self.supervisor.restore(state)
        clock = state.get("clock")
        if clock is not None:
            self._now = float(clock)
        ledger = state.get("ledger")
        if ledger is not None:
            self.ledger.restore(ledger)
        self._sync_admission()

    def _report(self) -> StreamReport:
        supervisor = self.supervisor
        heartbeat = supervisor.heartbeat
        return StreamReport(
            mode=supervisor.mode,
            transitions=list(supervisor.transitions),
            breaker_transitions={
                stage: list(breaker.transitions)
                for stage, breaker in supervisor.breakers.items()
            },
            days=self._days_seen,
            events=self._event_total,
            queue_peak_depth=supervisor.queue.peak_depth,
            forced_drains=supervisor.queue.forced_drains,
            stalls=self._stalls,
            partition_buffered=self._partition_buffered,
            partition_replayed=self._partition_replayed,
            analysis_observed=self._analysis_observed,
            analysis_deferred=self._analysis_deferred,
            analysis_errors=self._analysis_errors,
            heartbeat_soft_breaches=heartbeat.soft_breaches,
            heartbeat_hard_breaches=heartbeat.hard_breaches,
            skew_days=self._skew_days,
            ledger_days=self.ledger.days,
            coverage_rate=self.ledger.coverage_rate,
            ledger_verdict=self.ledger.verdict(),
        )

    # ------------------------------------------------------------------
    # the run loop (the one code path: stream, and batch as its replay)
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        checkpoint_path: Path | str | None = None,
        checkpoint_every_days: int | None = None,
        resume: bool = False,
        stop_after: date | None = None,
    ) -> SimulationResult:
        base = self.base
        config = base.config
        collector = self.collector
        channel = self.channel
        honeynet = base.honeynet

        first_day = config.start
        if resume:
            stream_sink: list[dict] = []
            restored = _resume_state(
                checkpoint_path, config, honeynet, collector,
                stream_sink=stream_sink,
            )
            if restored is not None:
                first_day = restored
            if stream_sink:
                if self.supervisor is None:
                    raise ValueError(
                        "checkpoint records a degraded stream state; resume "
                        "it with a supervised stream policy, not batch replay"
                    )
                self._restore_stream_state(stream_sink[0])
        corruptor = None
        if checkpoint_path is not None:
            corruptor = base.checkpoint_corruptor()
            if checkpoint_every_days is None:
                checkpoint_every_days = DEFAULT_CHECKPOINT_EVERY_DAYS

        started = time.monotonic()
        logger.info(
            "simulating %s..%s at scale=%g with %d bots on %d honeypots "
            "(fault profile: %s)",
            first_day, config.end, config.scale, len(base.bots),
            len(honeynet.honeypots), config.faults.name,
        )

        deliver = (
            channel.deliver if self.supervisor is None else self._push
        )
        current_month: str | None = None
        days_done = 0
        days = (
            days_between(first_day, config.end)
            if first_day <= config.end
            else iter(())
        )
        with telemetry.span("sim.run"):
            for day in days:
                month = month_key(day)
                if month != current_month:
                    if current_month is not None:
                        logger.debug(
                            "month %s done (%d sessions so far)",
                            current_month, len(collector.sessions),
                        )
                    current_month = month
                self._begin_day(day)
                with telemetry.span("sim.day"):
                    simulate_day(base, day, deliver)
                    self._drain_day(day)
                # Day boundary: release deferred records before any
                # checkpoint below — the deferral queues are intra-day
                # state and are never serialized.
                collector.end_of_day()
                channel.flush_telemetry()
                self._end_day(day)
                if self.publisher is not None:
                    self.publisher.publish_day(
                        collector,
                        day,
                        supervisor=self.supervisor,
                        ledger=(
                            self.ledger
                            if self.supervisor is not None
                            else None
                        ),
                    )
                days_done += 1
                stopping = stop_after is not None and day >= stop_after
                if checkpoint_path is not None and (
                    stopping or days_done % checkpoint_every_days == 0
                ):
                    save_checkpoint(
                        checkpoint_path, config, day + timedelta(days=1),
                        honeynet, collector, corruptor=corruptor,
                        stream_state=self._stream_state(),
                    )
                    telemetry.count("checkpoint.saves")
                    logger.debug("checkpointed through %s", day)
                if stopping:
                    logger.info("controlled stop after %s", day)
                    break

        result = _finish_result(base, collector, channel, started)
        if self.supervisor is not None:
            result.stream = self._report()
        return result


def run_stream(
    config: SimulationConfig,
    extra_bots_factory=None,
    *,
    policy: StreamPolicy | None = None,
    checkpoint_path: Path | str | None = None,
    checkpoint_every_days: int | None = None,
    resume: bool = False,
    stop_after: date | None = None,
    store_dir: Path | str | None = None,
    publisher=None,
) -> SimulationResult:
    """Run ``config`` through the (optionally supervised) stream engine.

    With ``policy=None`` (or :meth:`StreamPolicy.replay`) this *is* the
    batch engine — ``run_simulation`` delegates here.
    A supervised policy adds the robustness layer; a supervised
    fault-free policy still produces byte-identical digests, accounting
    and checkpoints.  Supervised results carry a :class:`StreamReport`
    on ``result.stream``.  ``publisher`` (a
    :class:`repro.service.SnapshotPublisher`) receives every day
    boundary; it observes, never mutates, so attaching one is
    digest-neutral.
    """
    if policy is None:
        policy = StreamPolicy.replay()
    substrate = build_substrate(config, extra_bots_factory)
    stream = StreamSubstrate(substrate, policy, publisher=publisher)
    result = stream.run(
        checkpoint_path=checkpoint_path,
        checkpoint_every_days=checkpoint_every_days,
        resume=resume,
        stop_after=stop_after,
    )
    if store_dir is not None:
        _export_store(result, store_dir)
    return result
