"""Drives the whole simulation: bots × calendar → collected sessions.

For each day in the window, every bot draws its Poisson session count,
builds connection intents, and the orchestrator routes each intent to a
honeypot at a concrete time of day.  Delivery to the collector goes
through the fault-profile's transport channel (lossless for the default
paper profile); the result is wrapped in a queryable session database.

The day-loop supports checkpoint/resume: because every per-day random
stream is keyed by ``(bot, date)`` paths rather than shared generator
state, the only mutable state a resumed run must restore is the
collector and each honeypot's session counter — see
:mod:`repro.faults.checkpoint`.

:func:`simulate_day` is the one inner loop; the day loop around it
lives in :mod:`repro.stream.engine`, which :func:`run_simulation`
delegates to.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.attackers.base import Bot, BotContext
from repro.attackers.fleetplan import build_fleet
from repro.attackers.infrastructure import StorageInfrastructure
from repro.attackers.malware import MalwareFactory
from repro.config import SimulationConfig
from repro.faults.checkpoint import (
    has_checkpoint,
    load_latest_checkpoint,
    restore_state,
)
from repro.faults.corruption import build_checkpoint_corruptor
from repro.faults.coverage import CoverageReport, build_coverage_report
from repro.faults.flood import FloodGenerator, build_flood_generator
from repro.faults.plan import FaultPlan, compile_fault_plan
from repro.faults.transport import (
    DirectChannel,
    ResilientChannel,
    build_channel,
)
from repro.honeynet.collector import Collector
from repro.honeynet.database import SessionDatabase
from repro.honeynet.deployment import Honeynet, deploy_honeynet
from repro.honeypot.session import SessionRecord
from repro.net.population import BasePopulation, build_base_population
from repro.net.whois import HistoricalWhois
from repro.overload.admission import build_admission_controller
from repro import telemetry
from repro.util.rng import RngTree
from repro.util.timeutils import to_epoch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.engine import StreamReport

logger = logging.getLogger("repro.simulation")

#: Default checkpoint cadence (simulated days) when a checkpoint path
#: is given without an explicit interval.
DEFAULT_CHECKPOINT_EVERY_DAYS = 30


@dataclass
class SimulationResult:
    """Everything a downstream analysis might need from one run."""

    config: SimulationConfig
    population: BasePopulation
    infrastructure: StorageInfrastructure
    malware: MalwareFactory
    honeynet: Honeynet
    collector: Collector
    database: SessionDatabase
    bots: list[Bot]
    whois: HistoricalWhois
    plan: FaultPlan
    coverage: CoverageReport
    channel: DirectChannel | ResilientChannel
    #: Supervision summary when the run used a supervised stream policy
    #: (:mod:`repro.stream`); None for batch replay.
    stream: "StreamReport | None" = field(default=None)


#: Signature of the optional fleet-extension hook.
ExtraBotsFactory = "Callable[[BasePopulation, RngTree, SimulationConfig], list[Bot]]"


def _check_bot_names(bots: list[Bot]) -> None:
    """Reject fleets with duplicate bot names, naming the offenders."""
    seen: set[str] = set()
    colliding: set[str] = set()
    for bot in bots:
        if bot.name in seen:
            colliding.add(bot.name)
        seen.add(bot.name)
    if colliding:
        names = ", ".join(sorted(colliding))
        raise ValueError(
            f"extra bots collide with fleet bot names: {names}"
        )


@dataclass
class SimulationSubstrate:
    """Everything the day-loop needs, built as a pure function of config.

    The substrate carries no day-loop progress: populations, bots and
    the fault plan are all derived from the master seed, so the same
    config always rebuilds an identical substrate.  The only mutable
    members are each honeypot's session counter (inside ``honeynet``),
    which checkpoints save and restore.
    """

    config: SimulationConfig
    tree: RngTree
    population: BasePopulation
    infrastructure: StorageInfrastructure
    malware: MalwareFactory
    honeynet: Honeynet
    context: BotContext
    bots: list[Bot]
    plan: FaultPlan
    coverage: CoverageReport
    #: Seeded scan-flood arrival generator, or None when bursts are off.
    flood: FloodGenerator | None = None

    def fresh_collector(self) -> Collector:
        """A new empty collector wired to this run's fault plan.

        When the flood profile bounds ingest, the collector gets its own
        admission gate; the gate's shed coins are keyed by session id
        under a fixed subtree, so verdicts do not depend on delivery
        order.
        """
        return Collector(
            outages=self.config.faults.outages,
            sensor_down_days=self.plan.sensor_down_days,
            admission=build_admission_controller(
                self.config.faults.flood,
                self.tree.child("faults", "overload"),
            ),
        )

    def fresh_channel(
        self, collector: Collector
    ) -> DirectChannel | ResilientChannel:
        """A new delivery channel for ``collector`` (per-record rng)."""
        return build_channel(
            collector,
            self.config.faults.transport,
            self.tree.child("faults", "transport"),
        )

    def checkpoint_corruptor(self):
        """This run's checkpoint-corruption fault hook (None when inert).

        Keyed under the fault subtree so corruption decisions are a pure
        function of (seed, save event).
        """
        return build_checkpoint_corruptor(
            self.config.faults.integrity,
            self.tree.child("faults", "integrity", "checkpoint"),
        )


def build_substrate(
    config: SimulationConfig, extra_bots_factory=None
) -> SimulationSubstrate:
    """Build the full pre-day-loop state for ``config``.

    Deterministic: every piece is derived from path-keyed rng streams,
    so two builds from the same config are identical.
    """
    tree = RngTree(config.seed)
    population = build_base_population(
        tree.child("net"), n_honeypot_ases=config.n_honeypot_ases
    )
    infrastructure = StorageInfrastructure(config, population, tree.child("infra"))
    malware = MalwareFactory(tree.child("malware"))
    honeynet = deploy_honeynet(config, population, tree.child("deploy"))
    context = BotContext(
        config=config,
        population=population,
        infrastructure=infrastructure,
        malware=malware,
        tree=tree.child("bots"),
    )
    bots = build_fleet(population, tree.child("fleet"), config)
    if extra_bots_factory is not None:
        bots = bots + list(
            extra_bots_factory(population, tree.child("extra"), config)
        )
        _check_bot_names(bots)
    plan = compile_fault_plan(
        config.faults,
        (honeypot.honeypot_id for honeypot in honeynet.honeypots),
        config.start,
        config.end,
        tree.child("faults"),
    )
    return SimulationSubstrate(
        config=config,
        tree=tree,
        population=population,
        infrastructure=infrastructure,
        malware=malware,
        honeynet=honeynet,
        context=context,
        bots=bots,
        plan=plan,
        coverage=build_coverage_report(plan),
        flood=build_flood_generator(
            config.faults.flood, tree.child("faults", "flood")
        ),
    )


def _route_draws(
    bot: Bot,
    route_rng,
    n: int,
    fleet_size: int,
    day: date,
) -> tuple[list[int], list[float]]:
    """Draw ``n`` routing pairs (honeypot index, second-of-day) at once.

    The RNG batching contract: the route stream is consumed in exactly
    the per-session order — index, start, index, start, ... — so the
    generator state after ``n`` pairs is identical to ``n`` interleaved
    :meth:`Bot.choose_honeypot_index` / :meth:`Bot.start_seconds`
    calls.  Bots overriding either hook get their bound methods called
    in the same order; the fast branch below is just the default hooks
    inlined (``uniform(0, 86400)`` is ``86400 * random()`` bit-exactly).
    """
    bot_type = type(bot)
    if (
        bot_type.choose_honeypot_index is Bot.choose_honeypot_index
        and bot_type.start_seconds is Bot.start_seconds
    ):
        randrange = route_rng.randrange
        rand = route_rng.random
        indices: list[int] = []
        seconds: list[float] = []
        push_index = indices.append
        push_second = seconds.append
        for _ in range(n):
            push_index(randrange(fleet_size))
            push_second(rand() * 86_400.0)
        return indices, seconds
    choose = bot.choose_honeypot_index
    start = bot.start_seconds
    indices = []
    seconds = []
    for _ in range(n):
        indices.append(choose(route_rng, fleet_size))
        seconds.append(start(route_rng, day))
    return indices, seconds


def simulate_day(
    substrate: SimulationSubstrate,
    day: date,
    deliver: Callable[[SessionRecord], bool],
) -> None:
    """Simulate one calendar day, delivering every produced record.

    This is *the* inner loop, called once per day by the stream
    engine's day loop (and so by every batch run, its replay).

    With the default ``include_telnet=True`` config the routing draws
    are batched per (bot, day) via :func:`_route_draws`; excluding
    telnet interleaves a protocol filter between the two route draws of
    each session, so that configuration keeps the per-session loop.
    """
    config = substrate.config
    honeypots = substrate.honeynet.honeypots
    fleet_size = len(honeypots)
    context = substrate.context
    day_epoch = to_epoch(day)
    ordinal = day.toordinal()
    produced = 0
    active_bots = 0
    batch_routes = config.include_telnet
    for bot in substrate.bots:
        intents = bot.sessions_for_day(context, day)
        if not intents:
            continue
        active_bots += 1
        route_rng = context.stream("route", bot.name, ordinal)
        if batch_routes:
            indices, seconds = _route_draws(
                bot, route_rng, len(intents), fleet_size, day
            )
            for intent, index, start in zip(intents, indices, seconds):
                deliver(honeypots[index].handle(intent, day_epoch + start))
            produced += len(intents)
            continue
        for intent in intents:
            honeypot = honeypots[
                bot.choose_honeypot_index(route_rng, fleet_size)
            ]
            if intent.protocol.value == "telnet":
                continue
            when = day_epoch + bot.start_seconds(route_rng, day)
            record = honeypot.handle(intent, when)
            deliver(record)
            produced += 1
    if substrate.flood is not None:
        # Injected scan-campaign arrivals ride the same delivery path as
        # bot traffic; their rng lives under the fault subtree, so they
        # never perturb the bot streams above.
        for index, seconds, intent in substrate.flood.arrivals(
            day, fleet_size
        ):
            record = honeypots[index].handle(intent, day_epoch + seconds)
            deliver(record)
            produced += 1
    registry = telemetry.active()
    if registry is not None:
        registry.count("sim.days")
        registry.count("sim.sessions", produced)
        registry.count("sim.active_bot_days", active_bots)
        registry.observe("sim.sessions_per_day", produced)


def _finish_result(
    substrate: SimulationSubstrate,
    collector: Collector,
    channel: DirectChannel | ResilientChannel,
    started: float,
) -> SimulationResult:
    """Wrap the collected sessions into the public result object."""
    # Final telemetry flush: the day loop emits collector and channel
    # counters at day granularity, so pick up whatever moved since the
    # last boundary.
    collector.flush_telemetry()
    channel.flush_telemetry()
    with telemetry.span("sim.finalize"):
        database = SessionDatabase(collector.sessions)
    telemetry.gauge("sim.stored_sessions", len(database))
    if collector.shed > 0:
        telemetry.gauge(
            "overload.shed_rate", collector.shed / max(collector.generated, 1)
        )
    logger.info(
        "simulation finished: %d sessions (%d dropped in outages/downtime, "
        "%d dead-lettered) in %.1fs",
        len(database), collector.dropped, collector.dead_lettered,
        time.monotonic() - started,
    )
    return SimulationResult(
        config=substrate.config,
        population=substrate.population,
        infrastructure=substrate.infrastructure,
        malware=substrate.malware,
        honeynet=substrate.honeynet,
        collector=collector,
        database=database,
        bots=substrate.bots,
        whois=HistoricalWhois(substrate.population.registry),
        plan=substrate.plan,
        coverage=substrate.coverage,
        channel=channel,
    )


def _resume_state(
    checkpoint_path: Path | str | None,
    config: SimulationConfig,
    honeynet: Honeynet,
    collector: Collector,
    stream_sink: list,
) -> date | None:
    """Restore the newest valid checkpoint generation, loudly.

    Called by the stream engine (and thus the serial batch replay).
    Returns the first day left to simulate, or
    ``None`` when no usable checkpoint exists (the caller starts
    fresh).  Generations rejected as corrupt are reported via warnings
    and ``checkpoint.*`` telemetry — a corrupted checkpoint costs
    re-simulated days, never silence.

    ``stream_sink``: a checkpoint written by a *degraded* supervised
    stream carries a ``stream`` section; the restored section is
    appended to this list so the caller can reinstate (or refuse) the
    supervision state.
    """
    if checkpoint_path is None:
        raise ValueError("resume=True requires a checkpoint_path")
    if not has_checkpoint(checkpoint_path):
        logger.info("no checkpoint at %s; starting fresh", checkpoint_path)
        return None
    checkpoint, rejected = load_latest_checkpoint(checkpoint_path, config)
    for note in rejected:
        logger.warning("rejected checkpoint generation: %s", note)
    if rejected:
        telemetry.count("checkpoint.rejected_generations", len(rejected))
    if checkpoint is None:
        logger.warning(
            "every checkpoint generation at %s is corrupt (%d rejected); "
            "starting fresh — the full window will be re-simulated",
            checkpoint_path, len(rejected),
        )
        return None
    first_day = restore_state(checkpoint, honeynet, collector)
    if checkpoint.stream:
        stream_sink.append(checkpoint.stream)
    telemetry.count("checkpoint.resumes")
    if rejected:
        telemetry.count("checkpoint.recovered_resumes")
        logger.warning(
            "resumed from an older checkpoint generation after rejecting "
            "%d corrupt one(s); days after %s will be re-simulated",
            len(rejected), first_day,
        )
    logger.info(
        "resumed from %s: %d sessions, next day %s",
        checkpoint_path, len(collector.sessions), first_day,
    )
    return first_day


def _export_store(result: SimulationResult, store_dir: Path | str) -> Path:
    """Write the run's indexed artifact tree (shards + ``index.sqlite``).

    Runs strictly *after* the result is finished, so the tree is a pure
    projection of it: dataset digests, conservation accounting and
    checkpoint bytes are identical with or without a ``store_dir``.  The
    fault profile's ``index_corruption_probability`` may damage the
    built index (seeded off its own ``RngTree`` branch) — consumers then
    degrade to the shard-scan path; the shards themselves are written
    clean.
    """
    from repro.faults.corruption import build_index_corruptor
    from repro.store import export_indexed_tree
    from repro.util.rng import RngTree

    config = result.config
    shard_name = "sessions.jsonl"
    corruptor = build_index_corruptor(
        config.faults.integrity,
        RngTree(config.seed).child("faults", "integrity", "index", shard_name),
    )
    with telemetry.span("store.export"):
        return export_indexed_tree(
            result.database.sessions,
            store_dir,
            shard_name=shard_name,
            config=config,
            index_corruptor=corruptor,
        )


def run_simulation(
    config: SimulationConfig,
    extra_bots_factory=None,
    *,
    checkpoint_path: Path | str | None = None,
    checkpoint_every_days: int | None = None,
    resume: bool = False,
    stop_after: date | None = None,
    store_dir: Path | str | None = None,
) -> SimulationResult:
    """Generate the full synthetic dataset for ``config``.

    ``extra_bots_factory(population, tree, config)`` may return
    additional :class:`~repro.attackers.base.Bot` instances to run
    alongside the paper's roster — the extension point for studying new
    attacker behaviours against the same honeynet.

    Checkpointing: with ``checkpoint_path`` set, collector state and the
    day cursor are saved every ``checkpoint_every_days`` simulated days
    (atomic write, rotated generations).  ``resume=True`` restores the
    newest generation that passes its checksums and continues from the
    saved cursor; corrupt generations are rejected loudly and cost
    re-simulated days, and a missing checkpoint simply starts from
    scratch.  With the fault profile's integrity knobs enabled, each
    save may be deliberately corrupted — the recovery path above is what
    keeps the digest identical anyway.  ``stop_after`` ends the loop after the given
    day (checkpointing first, when enabled), modelling a controlled
    shutdown mid-window; the returned result then covers only the
    simulated prefix.

    The window runs through the stream engine's day loop
    (:mod:`repro.stream`) with supervision bypassed — the batch path
    *is* the stream path.

    ``store_dir``, when set, additionally writes the finished dataset as
    an indexed artifact tree (JSONL shards + ``index.sqlite``,
    :mod:`repro.store`) under that directory — a projection of the
    finished result, byte-neutral to the result itself.
    """
    # Batch mode IS the stream engine replaying the window with
    # supervision bypassed — one code path (see repro.stream.engine).
    from repro.stream.engine import run_stream

    return run_stream(
        config,
        extra_bots_factory,
        checkpoint_path=checkpoint_path,
        checkpoint_every_days=checkpoint_every_days,
        resume=resume,
        stop_after=stop_after,
        store_dir=store_dir,
    )
