"""Command-line interface: ``python -m repro.cli <command>``.

Subcommands:

* ``stats``       — simulate and print the dataset statistics.
* ``experiments`` — run (a subset of) the experiments and print reports.
* ``export``      — run experiments and write their data as JSON/CSV.
* ``report``      — regenerate the EXPERIMENTS.md comparison document.
* ``faults``      — simulate under a fault profile and print the
  resilience report (fault plan, collector accounting, coverage).
* ``cluster``     — run the exact clustering stage on its own and print
  the cluster profiles (see docs/clustering.md).
* ``telemetry``   — run the pipeline with telemetry enabled and print
  the run report (see docs/observability.md).
* ``verify``      — audit a dataset/checkpoint tree (manifests,
  checksums, quarantine, index cross-check) and exit non-zero on
  unexplained discrepancies; ``--rebuild-index`` repairs a damaged
  ``index.sqlite`` from verified shards (see docs/fault-model.md).
* ``query``       — query a persisted artifact tree through the
  indexed store, with automatic shard-scan fallback when the index
  is damaged (see docs/architecture.md).
* ``stream``      — run the window through the supervised stream
  engine and print the supervision report (degraded-mode timeline,
  breaker transitions, queue/coverage stats); ``--verify-replay``
  additionally proves the digest equals a batch run of the same
  config (see docs/streaming.md).

Every subcommand accepts ``--fault-profile {none,paper,stress}``; the
default ``paper`` models exactly the deployment the paper describes.
``--flood-profile {off,burst,storm}`` layers the overload fault domain
(scan floods + admission control with deterministic load shedding) on
top of whatever fault profile is active; ``off`` (the default) is
byte-identical to the pre-overload pipeline.
``--telemetry [PATH]`` collects metrics/spans for the run and writes
them as JSON — purely observational, outputs are byte-identical with it
on or off.
"""

from __future__ import annotations

import argparse
import math
import sys
from datetime import date
from pathlib import Path

from repro.config import BENCH_CONFIG, DEFAULT_CONFIG, SimulationConfig
from repro.faults.plan import FaultProfile, FloodFaults

#: Profile names accepted by ``--fault-profile``.
FAULT_PROFILES = ("none", "paper", "stress")

#: Preset names accepted by ``--flood-profile``.
FLOOD_PROFILES = ("off", "burst", "storm")


def _positive_int(text: str) -> int:
    """An argparse ``type`` for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    """An argparse ``type`` for multipliers that must be finite and above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale", type=_positive_float, default=DEFAULT_CONFIG.scale
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    parser.add_argument(
        "--fault-profile",
        choices=FAULT_PROFILES,
        default="paper",
        help="fault-injection profile (see docs/fault-model.md)",
    )
    parser.add_argument(
        "--flood-profile",
        choices=FLOOD_PROFILES,
        default="off",
        help="overload preset: scan floods + admission control "
        "(see docs/fault-model.md)",
    )
    parser.add_argument(
        "--telemetry",
        type=Path,
        nargs="?",
        const=Path("telemetry.json"),
        default=None,
        metavar="PATH",
        help="collect run telemetry and write it as JSON (default "
        "PATH: telemetry.json; see docs/observability.md)",
    )


def _config(args: argparse.Namespace) -> SimulationConfig:
    import dataclasses

    faults = FaultProfile.from_name(getattr(args, "fault_profile", "paper"))
    flood_name = getattr(args, "flood_profile", "off")
    if flood_name != "off":
        faults = dataclasses.replace(
            faults, flood=FloodFaults.from_name(flood_name)
        )
    return SimulationConfig(scale=args.scale, seed=args.seed, faults=faults)


def _telemetry_meta(args: argparse.Namespace) -> dict:
    """Run identification recorded in every telemetry document."""
    return {
        "command": args.command,
        "seed": getattr(args, "seed", DEFAULT_CONFIG.seed),
        "scale": getattr(args, "scale", DEFAULT_CONFIG.scale),
        "fault_profile": getattr(args, "fault_profile", "paper"),
        "flood_profile": getattr(args, "flood_profile", "off"),
    }


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import build_dataset
    from repro.experiments.runner import run_experiment

    dataset = build_dataset(_config(args))
    print(run_experiment("table_stats", dataset).render())
    return 0


def _experiment_ids(args: argparse.Namespace) -> list[str] | None:
    """The ``--only`` ids (every registered one by default), or None
    after naming the unknown ones on stderr."""
    from repro.experiments.base import REGISTRY
    from repro.experiments.runner import load_all_experiments

    load_all_experiments()
    unknown = set(args.only or []) - set(REGISTRY)
    if unknown:
        print(f"unknown experiment ids: {sorted(unknown)}", file=sys.stderr)
        return None
    return args.only or list(REGISTRY)


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import build_dataset
    from repro.experiments.runner import run_experiment

    ids = _experiment_ids(args)
    if ids is None:
        return 2
    dataset = build_dataset(_config(args))
    for experiment_id in ids:
        result = run_experiment(experiment_id, dataset)
        print(result.render())
        if args.charts:
            from repro.reporting.figures import render_figure

            chart = render_figure(result)
            if chart:
                print()
                print(chart)
        print()
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.dataset import build_dataset
    from repro.experiments.runner import run_experiment

    ids = _experiment_ids(args)
    if ids is None:
        return 2
    dataset = build_dataset(_config(args))
    args.out.mkdir(parents=True, exist_ok=True)
    for experiment_id in ids:
        result = run_experiment(experiment_id, dataset)
        if args.format == "json":
            path = args.out / f"{experiment_id}.json"
            path.write_text(result.to_json())
        elif args.format == "csv":
            path = args.out / f"{experiment_id}.csv"
            path.write_text(result.to_csv())
        else:
            from repro.reporting.svg import render_svg, svg_heatmap

            if experiment_id == "fig05":
                clustering = dataset.clustering()
                from repro.analysis.clusterlabel import sorted_distance_matrix

                document = svg_heatmap(
                    sorted_distance_matrix(
                        clustering.matrix, clustering.result, clustering.profiles
                    ),
                    title="fig05: cluster-sorted normalized DLD matrix",
                )
            else:
                document = render_svg(result)
            if document is None:
                print(f"skipped {experiment_id} (no numeric view)")
                continue
            path = args.out / f"{experiment_id}.svg"
            path.write_text(document)
        print(f"wrote {path}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run the simulation and print the fault/resilience report."""
    from repro.attackers.orchestrator import run_simulation
    from repro.util.text import format_table

    config = _config(args)
    result = run_simulation(
        config,
        checkpoint_path=args.checkpoint,
        checkpoint_every_days=args.checkpoint_every,
        resume=args.resume,
        stop_after=args.stop_after,
    )
    profile = config.faults

    print(f"== fault profile: {profile.name} ==")
    for window in profile.outages:
        print(f"fleet outage: {window.start}..{window.end} ({window.days}d)")
    if profile.has_churn:
        print(
            f"sensor churn: {profile.crashes_per_sensor_year:g} crashes/"
            f"sensor-year, mean downtime {profile.crash_downtime_mean_days:g}d "
            f"-> {len(result.plan.downtimes)} crash windows, "
            f"{result.plan.sensor_down_day_count} sensor-days down"
        )
    transport = profile.transport
    if not transport.lossless:
        print(
            f"transport: fail {transport.failure_probability:.1%} + corrupt "
            f"{transport.corruption_probability:.1%} per attempt, duplicates "
            f"{transport.duplicate_probability:.1%}, "
            f"{transport.max_attempts} attempts"
        )
    flood = profile.flood
    if not flood.inert:
        budget = (
            f"budget {flood.daily_session_budget}/day"
            if flood.gates
            else "unbounded admission"
        )
        print(
            f"flood: {flood.burst_probability:.0%} of days burst "
            f"{flood.burst_sessions} sessions, {budget}, queue "
            f"{flood.sensor_queue_capacity}/sensor, shed "
            f"p={flood.shed_probability:.0%} for command sessions"
        )

    print()
    print("== collector accounting ==")
    accounting = result.collector.accounting()
    print(
        format_table(
            ["counter", "value"],
            [[key, value] for key, value in accounting.items()],
        )
    )
    balanced = result.collector.accounting_balanced()
    print(f"conservation law holds: {balanced}")
    if result.collector.shed:
        shed = result.collector.shed
        generated = accounting["generated"]
        print(
            f"admission control: {result.collector.admitted} admitted, "
            f"{result.collector.deferred} deferred, {shed} shed "
            f"({shed / generated:.1%} of generated)"
        )
    stats = result.channel.stats
    if stats.attempts:
        print(
            f"transport: {stats.attempts} attempts, "
            f"{stats.transient_failures} transient failures, "
            f"{stats.corrupt_deliveries} corrupt, "
            f"{stats.duplicate_deliveries} duplicate deliveries, "
            f"{stats.simulated_backoff_s:.1f}s simulated backoff"
        )

    print()
    print("== coverage ==")
    coverage = result.coverage
    print(f"overall: {coverage.overall_fraction:.2%} of sensor-days observed")
    gaps = coverage.gap_months()
    if gaps:
        rows = [
            [
                month,
                coverage.months[month].observed_sensor_days,
                coverage.months[month].total_sensor_days,
                f"{coverage.months[month].fraction:.1%}",
            ]
            for month in gaps
        ]
        print(format_table(["gap month", "observed", "scheduled", "frac"], rows))
    worst = [
        (hp, frac) for hp, frac in coverage.worst_sensors() if frac < 1.0
    ]
    if worst:
        print(
            "worst sensors: "
            + ", ".join(f"{hp} ({frac:.1%})" for hp, frac in worst)
        )
    if args.export is not None:
        from repro.faults.corruption import build_log_corruptor
        from repro.honeynet.io import write_jsonl
        from repro.util.rng import RngTree

        sessions = result.database.sessions
        corruptor = build_log_corruptor(
            profile.integrity,
            RngTree(config.seed).child(
                "faults", "integrity", "log", args.export.name
            ),
        )
        if args.index:
            from repro.faults.corruption import (
                build_index_corruptor,
                corrupt_index,
            )
            from repro.store.builder import export_indexed_tree

            index_path = export_indexed_tree(
                sessions,
                args.export.parent,
                shard_name=args.export.name,
                config=config,
                corruptor=corruptor,
            )
            # Damaged here, not through export_indexed_tree (which
            # returns only the path): the printed line names the mode.
            index_tree = RngTree(config.seed).child(
                "faults", "integrity", "index", args.export.name
            )
            if args.corrupt_index is not None:
                # Forced damage for smoke tests: always applied, with
                # seeded byte choices so reruns damage identically.
                corrupt_index(
                    index_path, args.corrupt_index, index_tree.rand_for("forced")
                )
                applied = args.corrupt_index
            else:
                index_corruptor = build_index_corruptor(
                    profile.integrity, index_tree
                )
                applied = index_corruptor and index_corruptor.maybe_corrupt(
                    index_path, key=0
                )
        else:
            write_jsonl(sessions, args.export, corruptor=corruptor)
        count = len(sessions)
        print()
        flavor = (
            "with injected corruption (recover via lenient read / "
            "repro verify)" if corruptor is not None else "clean"
        )
        print(f"exported {count} records to {args.export} (+manifest), {flavor}")
        if args.index:
            flavor = (
                f"then damaged ({applied}; repair via repro verify "
                "--rebuild-index)" if applied else "clean"
            )
            print(f"indexed {count} records into {index_path}, {flavor}")

    print()
    print(f"dataset digest: {result.database.digest()}")
    return 0 if balanced else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Audit an artifact tree.

    Exit codes: ``0`` — clean (every discrepancy recovered or
    explained); ``1`` — unexplained *data* damage; ``2`` — the path does
    not exist, or only derived index artifacts failed (ground truth
    intact: consumers fall back to the shard scan when the index no
    longer opens and keep answering from it when it does, as each index
    finding says, and ``--rebuild-index`` repairs it — which re-audits
    and returns 0 on success).
    """
    from repro.integrity.verify import audit_tree

    if not args.path.exists():
        print(f"no such path: {args.path}", file=sys.stderr)
        return 2
    audit = audit_tree(args.path, quarantine=args.quarantine)
    if args.rebuild_index and audit.index_damaged and args.path.is_dir():
        from repro.store import rebuild_index

        try:
            index_path, rows = rebuild_index(args.path)
        except FileNotFoundError as error:
            print(f"cannot rebuild index: {error}", file=sys.stderr)
        else:
            print(f"rebuilt {index_path} from shards ({rows} rows); re-auditing")
            audit = audit_tree(args.path, quarantine=args.quarantine)
    print(audit.render())
    if args.json is not None:
        args.json.write_text(audit.to_json() + "\n")
        print(f"wrote {args.json}")
    if audit.ok:
        return 0
    if audit.data_ok and audit.index_damaged:
        return 2
    return 1


def cmd_query(args: argparse.Namespace) -> int:
    """Query a persisted artifact tree through the indexed store.

    The smoke surface for :mod:`repro.store`: equality filters over the
    indexed columns, answered from ``index.sqlite`` when it is intact
    and from the shard-scan fallback otherwise — the answer is the same
    either way; only the reported ``source`` differs.
    """
    from repro.store import ResilientArtifactStore
    from repro.util.text import format_table

    if not args.path.exists():
        print(f"no such path: {args.path}", file=sys.stderr)
        return 2
    filters = {
        name: value
        for name, value in (
            ("day", args.day),
            ("sensor_id", args.sensor),
            ("client_ip", args.client_ip),
            ("protocol", args.protocol),
            ("rule_label", args.rule_label),
        )
        if value is not None
    }
    store = ResilientArtifactStore(args.path)
    try:
        if args.by is not None:
            counts = store.count_by(args.by, **filters)
            print(
                format_table(
                    [args.by, "sessions"],
                    [[value, count] for value, count in counts.items()],
                )
            )
            total = sum(counts.values())
        else:
            total = store.count(**filters)
        described = (
            ", ".join(f"{k}={v}" for k, v in sorted(filters.items()))
            or "no filters"
        )
        print(f"{total} sessions match ({described})")
        if args.ids:
            for session_id in store.session_ids(**filters):
                print(session_id)
        meta = store.meta()
        print(
            f"source: {store.source} (index schema v{meta.schema_version}, "
            f"{meta.record_count} records indexed)"
        )
        if store.source == "scan":
            print(
                f"note: index unusable ({store.fallback_reason}); answered "
                "from shard scan — repair with repro verify --rebuild-index"
            )
    finally:
        store.close()
    return 0


def cmd_telemetry(args: argparse.Namespace) -> int:
    """Build the dataset with telemetry on and print the run report;
    ``--telemetry PATH`` also writes the document as JSON."""
    from repro import telemetry
    from repro.experiments.dataset import build_dataset
    from repro.experiments.runner import run_all

    config = _config(args)
    with telemetry.collecting(profile=args.profile) as registry:
        dataset = build_dataset(config)
        if args.experiments:
            run_all(dataset)
    meta = _telemetry_meta(args)
    meta["experiments"] = args.experiments
    document = telemetry.telemetry_document(registry, meta=meta)
    print(telemetry.run_report_markdown(document))
    if args.telemetry is not None:
        telemetry.write_telemetry_json(args.telemetry, registry, meta=meta)
        print(f"wrote {args.telemetry}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run the clustering stage on its own and print the cluster profiles.

    The stage is the one the experiments use: sample the file sessions,
    build the exact token-DLD matrix, select k and run K-medoids (see
    docs/clustering.md).
    """
    import json

    from repro.experiments.dataset import CLUSTER_SAMPLE_LIMIT, build_dataset
    from repro.util.text import format_table

    dataset = build_dataset(_config(args))
    sample_limit = (
        args.sample_limit
        if args.sample_limit is not None
        else CLUSTER_SAMPLE_LIMIT
    )
    clustering = dataset.clustering(sample_limit=sample_limit)
    distinct = len({tuple(t) for t in clustering.tokens})
    out: dict = {
        "sessions": len(clustering.sessions),
        "distinct_sequences": distinct,
        "chosen_k": clustering.selection.chosen_k,
        "clusters": [
            {
                "rank": profile.rank,
                "sessions": len(profile.sessions),
                "avg_tokens": round(profile.avg_tokens, 1),
                "families": profile.families,
            }
            for profile in clustering.profiles
        ],
    }
    print(
        f"== cluster: {len(clustering.sessions)} sessions "
        f"({distinct} distinct), k={clustering.selection.chosen_k} =="
    )
    rows = [
        [
            profile.rank,
            len(profile.sessions),
            f"{profile.avg_tokens:.1f}",
            ", ".join(profile.families) or "-",
        ]
        for profile in clustering.profiles[:12]
    ]
    print(format_table(["rank", "sessions", "avg tokens", "families"], rows))
    if args.json is not None:
        args.json.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Run the supervised stream engine and print its supervision report.

    ``--stream-profile`` picks the :class:`~repro.stream.StreamPolicy`
    preset: ``live`` (supervised, fault-free — byte-identical to
    batch), ``chaos`` (elevated seeded stream faults), or ``replay``
    (supervision bypassed; exactly the batch serial engine).  The
    checkpoint flags mirror ``repro faults``; a checkpoint carrying a
    degraded supervision section resumes seamlessly here, where the
    batch engines would refuse it.
    """
    from datetime import date as _date

    from repro.attackers.orchestrator import run_simulation
    from repro.stream import StreamPolicy, run_stream
    from repro.util.text import format_table

    config = _config(args)
    policy = StreamPolicy.from_name(args.stream_profile)
    result = run_stream(
        config,
        policy=policy,
        checkpoint_path=args.checkpoint,
        checkpoint_every_days=args.checkpoint_every,
        resume=args.resume,
        stop_after=args.stop_after,
    )
    digest = result.database.digest()
    print(f"== stream: profile={args.stream_profile} ==")
    report = result.stream
    if report is None:
        print("supervision bypassed (replay profile = the batch engine)")
    else:
        print(
            f"mode: {report.mode}, {report.days} days, "
            f"{report.events} events, coverage {report.coverage_rate:.2%}"
        )
        verdict = report.ledger_verdict or {}
        print(
            f"ledger: {verdict.get('days', 0)} day boundaries audited, "
            f"balanced: {verdict.get('balanced', True)}, "
            f"last day: {verdict.get('last_day')}"
        )
        print(
            f"queue: peak depth {report.queue_peak_depth}, "
            f"{report.forced_drains} forced drains, {report.stalls} stalls"
        )
        print(
            f"partitions: {report.partition_buffered} buffered, "
            f"{report.partition_replayed} replayed; "
            f"skewed days: {report.skew_days}"
        )
        print(
            f"analysis: {report.analysis_observed} observed, "
            f"{report.analysis_deferred} deferred, "
            f"{report.analysis_errors} errors"
        )
        print(
            f"heartbeats: {report.heartbeat_soft_breaches} soft, "
            f"{report.heartbeat_hard_breaches} hard breaches"
        )
        if report.transitions:
            print()
            print("== degraded-mode timeline ==")
            rows = [
                [
                    _date.fromordinal(t.day).isoformat(),
                    t.event,
                    f"{t.from_mode} -> {t.to_mode}",
                    t.reason,
                ]
                for t in report.transitions
            ]
            print(
                format_table(["day", "event", "transition", "reason"], rows)
            )
        breaker_total = sum(
            len(transitions)
            for transitions in report.breaker_transitions.values()
        )
        if breaker_total:
            print(
                "breaker transitions: "
                + ", ".join(
                    f"{stage}={len(transitions)}"
                    for stage, transitions in sorted(
                        report.breaker_transitions.items()
                    )
                )
            )
    print()
    print(f"dataset digest: {digest}")
    if args.verify_replay:
        batch = run_simulation(config)
        match = (
            digest == batch.database.digest()
            and result.collector.accounting() == batch.collector.accounting()
        )
        print(f"replay-vs-batch: digest+accounting match: {match}")
        if not match:
            if (
                policy.supervised
                and not policy.faults.inert
                and not config.faults.flood.inert
            ):
                # Stream faults delay arrivals; with an admission gate
                # attached, delay changes which records hit the day's
                # budget — a deterministic divergence, not a bug (see
                # docs/streaming.md).  Still exit 1: the operator asked
                # for a byte-identity check that does not hold here.
                print(
                    "note: chaos stream faults + an admission gate "
                    "legitimately reorder admission; byte-identity is "
                    "only promised for fault-free profiles"
                )
            return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve an indexed artifact tree over the JSON-lines TCP frontend.

    The service answers against a version-1 snapshot of the store plus
    filtered store queries, behind the full overload ladder (token
    buckets, bounded queue, deadlines, the service↔store breaker).  One
    JSON object per line in, one contractual response per line out —
    see docs/service.md for the endpoint shapes.
    """
    from repro.service import QueryService, ServicePolicy, serve
    from repro.store import SqliteStore, index_path_for

    store = SqliteStore.open(index_path_for(args.path), read_only=True)
    try:
        service = QueryService(
            store=store,
            policy=ServicePolicy.from_name(args.service_policy),
        )
        snapshot = service.current_snapshot()

        def ready(frontend):
            # Printed once the socket is bound, so --port 0 reports the
            # resolved port.
            print(
                f"serving {snapshot.sessions} sessions "
                f"(snapshot v{snapshot.version}, "
                f"digest {snapshot.content_digest[:12]}...) "
                f"on {args.host}:{frontend.port}",
                flush=True,
            )

        try:
            frontend = serve(
                service,
                host=args.host,
                port=args.port,
                max_requests=args.max_requests,
                ready=ready,
            )
        except KeyboardInterrupt:
            print("interrupted")
            return 0
        print(f"served {frontend.handled} requests")
    finally:
        store.close()
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Run the seeded service load model and print its outcome ledger.

    Simulates the configured window, exports it to a temporary indexed
    store, then drives the ``--service-profile`` fault preset against a
    store-backed service — entirely in memory, no sockets.  The run is
    a pure function of ``(seed, config, policy)``: the test replays the
    whole load and checks the two ledger digests are identical.  With
    ``--enforce`` the command fails on contract violations (any
    unserved request, a non-deterministic replay) — the CI service
    smoke runs this under the thundering-herd profile.
    """
    import json as json_module
    import tempfile
    import time

    from repro.attackers.orchestrator import run_simulation
    from repro.faults.service import ServiceFaults
    from repro.service import (
        QueryService,
        ServiceLoadModel,
        ServicePolicy,
        run_load_test,
    )
    from repro.store import SqliteStore, index_path_for

    config = _config(args)
    if args.days is not None:
        from datetime import timedelta

        config = config.replace(
            end=min(config.end, config.start + timedelta(days=args.days - 1))
        )
    faults = ServiceFaults.from_name(args.service_profile)
    policy = ServicePolicy.from_name(args.service_policy)

    with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
        store_dir = Path(tmp)
        run_simulation(config, store_dir=store_dir)
        index = index_path_for(store_dir)

        def one_run():
            store = SqliteStore.open(index, read_only=True)
            try:
                service = QueryService(
                    store=store, policy=policy, seed=config.seed
                )
                model = ServiceLoadModel(
                    seed=config.seed,
                    clients=args.clients,
                    ticks=args.ticks,
                    requests_per_tick=args.requests_per_tick,
                    faults=faults,
                )
                started = time.perf_counter()
                report = run_load_test(service, model)
                wall_s = time.perf_counter() - started
                return report, wall_s, service
            finally:
                store.close()

        report, wall_s, service = one_run()
        replay, _, _ = one_run()

    identical = report.digest() == replay.digest()
    document = report.as_dict()
    document["profile"] = args.service_profile
    document["policy_name"] = args.service_policy
    document["wall_s"] = round(wall_s, 4)
    document["requests_per_s"] = (
        round(report.total / wall_s, 1) if wall_s else None
    )
    document["replay_identical"] = identical
    document["breaker_trips"] = service.breaker.trips

    print(
        f"== loadtest: profile={args.service_profile} "
        f"policy={args.service_policy} =="
    )
    print(
        f"requests: {report.total} -> {report.ok} ok, "
        f"{report.stale} stale, {sum(report.rejected.values())} rejected, "
        f"{report.unserved} unserved "
        f"({document['requests_per_s']} req/s)"
    )
    if report.rejected:
        print(
            "rejections: "
            + ", ".join(
                f"{reason}={count}"
                for reason, count in sorted(report.rejected.items())
            )
        )
    print(
        f"cache hit ratio: {report.cache_hit_ratio:.3f}; "
        f"stale rate: {report.stale_rate:.3f}; "
        f"breaker trips: {service.breaker.trips}"
    )
    print(f"ledger digest: {report.digest()}")
    print(f"replay identical: {identical}")

    violations: list[str] = []
    if report.unserved:
        violations.append(
            f"{report.unserved} requests left unserved (outside the "
            "ok/rejected/stale contract)"
        )
    if not identical:
        violations.append(
            "replaying the same (seed, config, policy) produced a "
            "different request-outcome ledger"
        )
    for violation in violations:
        marker = "FAIL" if args.enforce else "warn"
        print(f"{marker}: {violation}")
    if args.json is not None:
        args.json.write_text(json_module.dumps(document, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 1 if args.enforce and violations else 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all
    from repro.reporting.markdown import experiments_markdown

    config = _config(args)
    results = run_all(config=config)
    args.out.write_text(experiments_markdown(results, config))
    print(f"wrote {args.out} ({len(results)} experiments)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    stats = commands.add_parser("stats", help="dataset statistics")
    _add_common(stats)
    stats.set_defaults(func=cmd_stats)

    experiments = commands.add_parser(
        "experiments", help="run experiments and print text reports"
    )
    _add_common(experiments)
    experiments.add_argument("--only", nargs="*", default=None)
    experiments.add_argument(
        "--charts", action="store_true", help="append text charts"
    )
    experiments.set_defaults(func=cmd_experiments)

    export = commands.add_parser(
        "export", help="write experiment data as JSON or CSV"
    )
    _add_common(export)
    export.add_argument("--only", nargs="*", default=None)
    export.add_argument(
        "--format", choices=("json", "csv", "svg"), default="json"
    )
    export.add_argument("--out", type=Path, default=Path("figures"))
    export.set_defaults(func=cmd_export)

    report = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md"
    )
    report.add_argument(
        "--scale", type=_positive_float, default=BENCH_CONFIG.scale
    )
    report.add_argument("--seed", type=int, default=BENCH_CONFIG.seed)
    report.add_argument("--out", type=Path, default=Path("EXPERIMENTS.md"))
    report.add_argument(
        "--telemetry", type=Path, nargs="?", const=Path("telemetry.json"),
        default=None, metavar="PATH",
        help="collect run telemetry and write it as JSON",
    )
    report.set_defaults(func=cmd_report)

    telemetry = commands.add_parser(
        "telemetry",
        help="run the pipeline instrumented and print the telemetry report",
    )
    _add_common(telemetry)
    telemetry.add_argument(
        "--profile", action="store_true",
        help="capture cProfile output around the simulate/clustering stages",
    )
    telemetry.add_argument(
        "--experiments", action="store_true",
        help="also run every experiment (spans per experiment id)",
    )
    telemetry.set_defaults(func=cmd_telemetry)

    cluster = commands.add_parser(
        "cluster",
        help="run the exact clustering stage and print the cluster profiles",
    )
    _add_common(cluster)
    cluster.add_argument(
        "--sample-limit", type=_positive_int, default=None, metavar="N",
        help="max sessions fed to the clustering stage, at least 1 "
        "(default: the pipeline's CLUSTER_SAMPLE_LIMIT)",
    )
    cluster.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the cluster summary as JSON",
    )
    cluster.set_defaults(func=cmd_cluster)

    faults = commands.add_parser(
        "faults",
        help="simulate under a fault profile and print the resilience report",
    )
    _add_common(faults)
    faults.add_argument(
        "--checkpoint", type=Path, default=None,
        help="checkpoint file to write (and resume from)",
    )
    faults.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="DAYS",
        help="checkpoint cadence in simulated days (default 30)",
    )
    faults.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists",
    )
    faults.add_argument(
        "--stop-after", type=date.fromisoformat, default=None, metavar="DATE",
        help="controlled stop after this simulated day (YYYY-MM-DD)",
    )
    faults.add_argument(
        "--export", type=Path, default=None, metavar="PATH",
        help="write the resulting dataset as JSONL (+ sidecar manifest); "
        "corruption faults from the active profile apply to the export",
    )
    faults.add_argument(
        "--index", action="store_true",
        help="with --export: also build index.sqlite next to the export "
        "(the active profile's index-corruption faults apply to it)",
    )
    from repro.faults.corruption import INDEX_CORRUPTION_MODES

    faults.add_argument(
        "--corrupt-index", choices=INDEX_CORRUPTION_MODES, default=None,
        metavar="MODE",
        help="with --index: unconditionally damage the built index with "
        f"this mode ({', '.join(INDEX_CORRUPTION_MODES)}) — for smoke "
        "tests of the verify/rebuild/fallback paths",
    )
    faults.set_defaults(func=cmd_faults)

    stream = commands.add_parser(
        "stream",
        help="run the supervised stream engine and print the "
        "supervision report (see docs/streaming.md)",
    )
    _add_common(stream)
    stream.add_argument(
        "--stream-profile", choices=("replay", "live", "chaos"),
        default="live",
        help="stream policy preset: replay (batch, unsupervised), "
        "live (supervised, fault-free), chaos (elevated stream faults)",
    )
    stream.add_argument(
        "--checkpoint", type=Path, default=None,
        help="checkpoint file to write (and resume from)",
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="DAYS",
        help="checkpoint cadence in simulated days (default 30)",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists",
    )
    stream.add_argument(
        "--stop-after", type=date.fromisoformat, default=None, metavar="DATE",
        help="controlled stop after this simulated day (YYYY-MM-DD)",
    )
    stream.add_argument(
        "--verify-replay", action="store_true",
        help="also run the batch engine on the same config and fail "
        "unless digest and accounting are identical",
    )
    stream.set_defaults(func=cmd_stream)

    from repro.faults.service import SERVICE_PROFILES

    serve = commands.add_parser(
        "serve",
        help="serve an indexed artifact tree over the JSON-lines TCP "
        "query/status service (see docs/service.md)",
    )
    serve.add_argument(
        "path", type=Path,
        help="artifact tree directory (a --store/--export destination)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 = pick a free one; default 8642)",
    )
    serve.add_argument(
        "--service-policy", choices=("default", "strict"),
        default="default",
        help="overload-ladder preset (default: production-shaped)",
    )
    serve.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="stop after serving N requests (smoke tests); "
        "default: serve until interrupted",
    )
    serve.set_defaults(func=cmd_serve)

    loadtest = commands.add_parser(
        "loadtest",
        help="drive the seeded service load model (no sockets) and "
        "print the request-outcome ledger",
    )
    _add_common(loadtest)
    loadtest.add_argument(
        "--service-profile", choices=SERVICE_PROFILES, default="off",
        help="client fault preset (slow loris, disconnects, thundering "
        "herd, store errors, chaos; default off)",
    )
    loadtest.add_argument(
        "--service-policy", choices=("default", "strict"),
        default="default",
        help="overload-ladder preset the service runs under",
    )
    loadtest.add_argument(
        "--days", type=int, default=None, metavar="N",
        help="simulate only the first N days of the window for the "
        "backing store (default: the full window)",
    )
    loadtest.add_argument(
        "--clients", type=int, default=6,
        help="distinct client ids in the load model (default 6)",
    )
    loadtest.add_argument(
        "--ticks", type=int, default=15,
        help="load-model ticks (default 15)",
    )
    loadtest.add_argument(
        "--requests-per-tick", type=int, default=8, metavar="N",
        help="base requests per tick, herds excluded (default 8)",
    )
    loadtest.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the outcome document as JSON",
    )
    loadtest.add_argument(
        "--enforce", action="store_true",
        help="fail (exit 1) on contract violations: unserved requests "
        "or a non-deterministic replay",
    )
    loadtest.set_defaults(func=cmd_loadtest)

    verify = commands.add_parser(
        "verify",
        help="audit a dataset/checkpoint tree for integrity "
        "(manifests, checksums, quarantine coverage)",
    )
    verify.add_argument(
        "path", type=Path, nargs="?", default=Path("."),
        help="file or directory tree to audit (default: current directory)",
    )
    verify.add_argument(
        "--quarantine", type=Path, default=None, metavar="DIR",
        help="quarantine store to check losses against "
        "(default: <path>/quarantine)",
    )
    verify.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the audit as JSON to this path",
    )
    verify.add_argument(
        "--rebuild-index", action="store_true",
        help="if the audit finds damaged index artifacts, rebuild "
        "index.sqlite from the verified shards and re-audit",
    )
    verify.set_defaults(func=cmd_verify)

    query = commands.add_parser(
        "query",
        help="query a persisted artifact tree via the indexed store "
        "(scan fallback when the index is damaged)",
    )
    query.add_argument(
        "path", type=Path,
        help="artifact tree directory (a --store/--export destination)",
    )
    query.add_argument("--day", default=None, help="UTC day, YYYY-MM-DD")
    query.add_argument("--sensor", default=None, help="honeypot sensor id")
    query.add_argument("--client-ip", default=None)
    query.add_argument("--protocol", default=None, choices=("ssh", "telnet"))
    query.add_argument(
        "--rule-label", default=None, help="Table-1 session category"
    )
    query.add_argument(
        "--by", default=None,
        choices=("day", "sensor_id", "client_ip", "protocol", "rule_label"),
        help="group matching sessions and print per-value counts",
    )
    query.add_argument(
        "--ids", action="store_true", help="also print matching session ids"
    )
    query.set_defaults(func=cmd_query)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry_path = getattr(args, "telemetry", None)
    # The ``telemetry`` subcommand manages its own registry; everything
    # else gets generic collect-and-write handling here.
    if telemetry_path is None or args.command == "telemetry":
        return args.func(args)
    from repro import telemetry

    with telemetry.collecting() as registry:
        status = args.func(args)
    telemetry.write_telemetry_json(
        telemetry_path, registry, meta=_telemetry_meta(args)
    )
    print(f"wrote {telemetry_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
