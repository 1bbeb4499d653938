#!/usr/bin/env python
"""Nightly integrity soak: stress the pipeline end to end and audit it.

Runs the full robustness story in one go, against the `stress` fault
profile (outages + churn + lossy transport + checkpoint corruption +
log corruption + index corruption):

1. a checkpointed run (corruption faults live) killed mid-window and
   resumed — digest must equal the uninterrupted run;
2. a corrupted JSONL export, recovered leniently — `repro verify` must
   PASS (every loss quarantined with provenance) and the recovery
   accounting must balance;
3. an indexed artifact tree under every index-corruption mode — the
   resilient store must answer identically to a clean index via scan
   fallback, `repro verify` must flag the damage as repairable
   (exit 2) and `--rebuild-index` must restore a clean audit;
4. a deliberately mangled copy without recovery — `repro verify` must
   FAIL (unexplained damage is never waved through);
5. a flood leg: the same stress window under the `storm` flood preset
   — the extended conservation law must balance with `shed > 0`;
6. a stream-chaos leg: the supervised stream engine under elevated
   stream faults (`chaos` preset) on top of the storm flood — two runs
   of the same seed must produce identical digests *and* identical
   breaker/mode-ladder timelines, the conservation ledger (including
   the extended `admitted == stored + deduplicated` law) must balance,
   a mid-run interrupt must resume to the same final digest, and a
   fault-free supervised replay must stay byte-identical to batch;
7. a stream-serve leg: the same chaos stream with a snapshot publisher
   attached and a live query burst fired at every published day
   boundary — digests and accounting must stay byte-identical to the
   detached run, and a full chaos-profile service load test over the
   run's exported store must resolve every request contractually
   (zero unserved) and replay to an identical request-outcome ledger.
8. a shell-memo leg: every session of the full window at seeds 7, 11
   and 23, under the `paper` and `stress` profiles, must equal a replay
   of its intent through a memo-less twin of its sensor (record, URIs
   and file events), and one seed's intents replayed in order through
   one persistent filesystem must give the same records with and
   without the line memo.
9. a dld leg: every distinct pair of every DLD matrix a reproduction
   builds (the clustering sample, the tokenizer ablation's two builds
   and Figure 14's exemplars) at seeds 7, 11 and 23 must equal the
   brute-force reference distance; the leg prints the reference's time.

Every numbered item is a registered *leg* — `--only <leg>` runs one in
isolation (see `--list-legs`).  Exit code 0 only when every executed
check holds.  Designed for the scheduled `soak` workflow but runnable
locally:

    PYTHONPATH=src python scripts/soak.py --scale 1e-4
    PYTHONPATH=src python scripts/soak.py --only stream-chaos
    PYTHONPATH=src python scripts/soak.py --only shell-memo
    PYTHONPATH=src python scripts/soak.py --only dld
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig
from repro.experiments.dataset import build_dataset
from repro.faults.corruption import build_log_corruptor, corrupt_file
from repro.faults.plan import FaultProfile
from repro.honeynet.io import recover_jsonl, write_jsonl
from repro.integrity.quarantine import QUARANTINE_DIR_NAME
from repro.integrity.verify import audit_tree
from repro.util.rng import RngTree

#: The repository root: the shell-memo and dld legs import their
#: references from ``tests/shell_reference.py`` and
#: ``tests/dld_reference.py``.
ROOT = Path(__file__).resolve().parents[1]

#: Seeds and fault profiles the shell-memo leg replays.
MEMO_SEEDS = (7, 11, 23)
MEMO_PROFILES = ("paper", "stress")

#: Seeds whose reproductions' DLD matrices the dld leg checks.
DLD_SEEDS = (7, 11, 23)

#: A window long enough to cross the paper outage and several churn
#: events, short enough for a nightly job.
SOAK_WINDOW = dict(start=date(2023, 8, 1), end=date(2023, 11, 15))


def fail(message: str) -> None:
    print(f"FAIL: {message}")
    raise SystemExit(1)


@dataclass
class SoakContext:
    """Everything a soak leg may need, built once per invocation.

    The reference run is expensive, so it is computed lazily —
    `--only` runs of legs that never touch it skip it entirely.
    """

    config: SimulationConfig
    work: Path
    _reference: object = field(default=None, repr=False)

    @property
    def reference(self):
        if self._reference is None:
            print("building reference run…")
            self._reference = run_simulation(self.config)
            print(f"reference digest: {self._reference.database.digest()}")
        return self._reference


#: Registered soak legs, in execution order: name -> leg(ctx).
LEGS: dict[str, Callable[[SoakContext], None]] = {}


def leg(name: str):
    """Register a soak leg under ``name`` (addressable via ``--only``)."""

    def register(fn: Callable[[SoakContext], None]):
        LEGS[name] = fn
        return fn

    return register


def check_checkpoint_recovery(
    config: SimulationConfig, reference, work: Path
) -> None:
    checkpoint = work / "soak.ckpt"
    with telemetry.collecting() as registry:
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=14,
            stop_after=date(2023, 10, 2),
        )
        resumed = run_simulation(
            config, checkpoint_path=checkpoint, resume=True
        )
    corruptions = registry.counters.get("checkpoint.corruptions", 0)
    rejected = registry.counters.get("checkpoint.rejected_generations", 0)
    print(
        f"checkpoint resume: {corruptions} saves corrupted, "
        f"{rejected} generations rejected at resume"
    )
    if resumed.database.digest() != reference.database.digest():
        fail("resumed digest diverged from the uninterrupted run")
    audit = audit_tree(work)
    if not audit.ok:
        print(audit.render())
        fail("checkpoint tree failed verification")


def check_export_recovery(config: SimulationConfig, reference, work: Path) -> None:
    export_dir = work / "export"
    export_dir.mkdir()
    path = export_dir / "sessions.jsonl"
    corruptor = build_log_corruptor(
        config.faults.integrity,
        RngTree(config.seed).child("faults", "integrity", "log", path.name),
    )
    write_jsonl(reference.database.sessions, path, corruptor=corruptor)
    recovered = recover_jsonl(path, quarantine=export_dir / QUARANTINE_DIR_NAME)
    report = recovered.report
    print(
        f"export: {report.recovered} recovered, {report.duplicates} duplicates "
        f"dropped, {report.reordered} reordered, {report.quarantined} corrupt "
        f"lines, {report.lost} records lost"
    )
    if not report.conservation_balanced():
        fail("recovery conservation accounting does not balance")
    audit = audit_tree(export_dir)
    print(audit.render())
    if not audit.ok:
        fail("recovered export tree failed verification")
    entries = recovered.quarantine.entries()
    missing = [entry for entry in entries if entry.reason == "missing-line"]
    if audit.records_lost != len(missing):
        fail("records lost != missing-line quarantine entries")
    corrupt = [entry.line for entry in entries if entry.reason != "missing-line"]
    if corrupt != [line for line, _ in report.bad_lines]:
        fail("a corrupt line has no quarantine entry of its own")


def check_flood_overload(config: SimulationConfig) -> None:
    """Overload leg: a balanced shed ledger under the storm flood."""
    import dataclasses

    from repro.faults.plan import FloodFaults

    flood_config = config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name("storm")
        )
    )
    flooded = run_simulation(flood_config)
    collector = flooded.collector
    print(
        f"flood: {collector.generated} generated, {collector.shed} shed, "
        f"{collector.deferred} deferred, digest {flooded.database.digest()[:16]}…"
    )
    if not collector.accounting_balanced():
        fail("flood run's conservation accounting does not balance")
    if collector.shed == 0:
        fail("storm flood shed nothing — admission gate not engaging")
    if collector.admitted != len(collector.sessions) + collector.deduplicated:
        fail("admitted != stored + deduplicated under the flood gate")


def check_index_resilience(reference, work: Path) -> None:
    """Store leg: under every index-corruption mode the resilient store
    answers identically to a clean index, verify flags repairable
    damage as exit 2, and --rebuild-index restores a clean audit."""
    from repro.cli import main as cli_main
    from repro.faults.corruption import INDEX_CORRUPTION_MODES, corrupt_index
    from repro.store import (
        ResilientArtifactStore,
        export_indexed_tree,
        index_path_for,
    )

    sessions = reference.database.sessions[:500]
    clean_dir = work / "store-clean"
    export_indexed_tree(sessions, clean_dir)
    baseline = ResilientArtifactStore(clean_dir)
    expected_ids = baseline.session_ids()
    expected_by_day = baseline.count_by("day")
    expected_digest = baseline.database().digest()
    baseline_source = baseline.source
    baseline.close()
    if baseline_source != "index":
        fail("clean index tree did not serve from the index")

    for mode in INDEX_CORRUPTION_MODES:
        tree = work / f"store-{mode}"
        export_indexed_tree(sessions, tree)
        corrupt_index(index_path_for(tree), mode, random.Random(41))
        with telemetry.collecting() as registry:
            store = ResilientArtifactStore(tree)
            ids = store.session_ids()
            by_day = store.count_by("day")
            digest = store.database().digest()
            source = store.source
            store.close()
        fallbacks = registry.counters.get("store.fallback", 0)
        print(
            f"index {mode}: source={source} "
            f"({fallbacks} fallbacks), {len(ids)} sessions"
        )
        if digest != expected_digest:
            fail(f"scan-path dataset diverged under index corruption mode {mode}")
        # Structural damage (truncate, drop-rows) is always caught at
        # open, so these answers must come via the scan and be exact.
        # A bitflip can land anywhere: a free page (benign), a broken
        # page (caught at open), or live cell content — the last is
        # only detectable by the verify audit's row cross-check, which
        # is exactly what runs next.
        if mode != "bitflip" and (ids, by_day) != (expected_ids, expected_by_day):
            fail(f"store answers diverged under index corruption mode {mode}")
        exit_code = cli_main(["verify", str(tree)])
        if mode == "bitflip":
            if exit_code not in (0, 2):
                fail(f"verify exit {exit_code} under {mode} (wanted 0 or 2)")
        elif exit_code != 2:
            fail(f"verify exit {exit_code} under {mode} (wanted 2: index-only)")
        if exit_code == 2:
            if cli_main(["verify", str(tree), "--rebuild-index"]) != 0:
                fail(f"--rebuild-index did not repair the {mode}-damaged tree")
            if cli_main(["verify", str(tree)]) != 0:
                fail(f"rebuilt {mode} tree still fails verification")
        healed = ResilientArtifactStore(tree)
        healed_answers = (healed.session_ids(), healed.count_by("day"))
        healed_source = healed.source
        healed.close()
        if healed_answers != (expected_ids, expected_by_day):
            fail(f"post-repair answers diverged under {mode}")
        if healed_source != "index":
            fail(f"post-repair tree still not serving from the index ({mode})")


def check_mangled_tree_fails(reference, work: Path) -> None:
    mangled_dir = work / "mangled"
    mangled_dir.mkdir()
    path = mangled_dir / "sessions.jsonl"
    write_jsonl(reference.database.sessions[:500], path)
    corrupt_file(path, random.Random(7))
    audit = audit_tree(mangled_dir)
    if audit.ok:
        fail("verify passed a mangled, unrecovered tree")
    print(f"mangled tree correctly rejected ({len(audit.unexplained())} findings)")


def check_stream_chaos(config: SimulationConfig, work: Path) -> None:
    """Stream leg: supervision under elevated stream faults must be a
    pure function of the seed, conserve every record, survive a mid-run
    interrupt, and collapse back to batch bytes when the faults are off."""
    import dataclasses

    from repro.faults.plan import FloodFaults
    from repro.stream import StreamPolicy, run_stream

    flood_config = config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name("storm")
        )
    )

    first = run_stream(flood_config, policy=StreamPolicy.chaos())
    report = first.stream
    print(
        f"stream chaos: mode={report.mode}, "
        f"{len(report.transitions)} mode transitions, "
        f"{report.stalls} stalls, {report.forced_drains} forced drains, "
        f"{report.partition_replayed} partition replays, "
        f"{report.analysis_errors} analysis errors, "
        f"coverage {report.coverage_rate:.3f}, "
        f"digest {first.database.digest()[:16]}…"
    )
    if not report.transitions:
        fail("chaos preset never moved the degraded-mode ladder")
    if report.ledger_days != report.days:
        fail("rolling ledger did not audit every day boundary")
    collector = first.collector
    if not collector.accounting_balanced():
        fail("stream chaos run's conservation accounting does not balance")
    if collector.admitted != len(collector.sessions) + collector.deduplicated:
        fail("admitted != stored + deduplicated under stream chaos")

    again = run_stream(flood_config, policy=StreamPolicy.chaos())
    if again.database.digest() != first.database.digest():
        fail("same-seed stream chaos runs produced different digests")
    if again.stream.transitions != report.transitions:
        fail("same-seed stream chaos runs disagree on the mode timeline")
    if again.stream.breaker_transitions != report.breaker_transitions:
        fail("same-seed stream chaos runs disagree on breaker timelines")

    checkpoint = work / "stream-chaos.ckpt"
    run_stream(
        flood_config, policy=StreamPolicy.chaos(),
        checkpoint_path=checkpoint, checkpoint_every_days=14,
        stop_after=date(2023, 10, 2),
    )
    resumed = run_stream(
        flood_config, policy=StreamPolicy.chaos(),
        checkpoint_path=checkpoint, resume=True,
    )
    print(
        f"stream chaos resume: digest {resumed.database.digest()[:16]}…"
    )
    if resumed.database.digest() != first.database.digest():
        fail("interrupted stream chaos run resumed to a different digest")
    if resumed.collector.accounting() != collector.accounting():
        fail("interrupted stream chaos run resumed to a different ledger")

    batch = run_simulation(flood_config)
    replay = run_stream(flood_config, policy=StreamPolicy.live())
    if replay.database.digest() != batch.database.digest():
        fail("fault-free supervised stream diverged from batch digest")
    if replay.collector.accounting() != batch.collector.accounting():
        fail("fault-free supervised stream diverged from batch accounting")
    print("stream replay-vs-batch: digests identical")


def check_stream_serve(config: SimulationConfig, work: Path) -> None:
    """Serve leg: a snapshot publisher attached to the chaos stream —
    with live load bursts at every published boundary — must leave
    digests untouched, and a seeded chaos load test over the exported
    store must stay contractual and replay byte-identically."""
    import asyncio
    import dataclasses

    from repro.faults.plan import FloodFaults
    from repro.faults.service import ServiceFaults
    from repro.service import (
        QueryService,
        Request,
        ServiceLoadModel,
        SnapshotPublisher,
        run_load_test,
    )
    from repro.store import SqliteStore, export_indexed_tree, index_path_for
    from repro.stream import StreamPolicy, run_stream

    flood_config = config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name("storm")
        )
    )
    detached = run_stream(flood_config, policy=StreamPolicy.chaos())
    publisher = SnapshotPublisher()
    bursts = {"requests": 0}

    def burst(snapshot) -> None:
        # A live reader burst at each publish boundary: the publisher
        # hook drives a service over the snapshot mid-run, which must
        # observe and never mutate.
        service = QueryService(snapshot=snapshot)

        async def drive() -> None:
            for index in range(4):
                response = await service.handle(
                    Request(f"soak-{index}", "aggregate")
                )
                if response.outcome != "ok":
                    fail("day-boundary load burst got a non-ok response")

        asyncio.run(drive())
        bursts["requests"] += 4

    publisher.on_publish.append(burst)
    attached = run_stream(
        flood_config, policy=StreamPolicy.chaos(), publisher=publisher
    )
    print(
        f"stream serve: {publisher.published} snapshots published, "
        f"{publisher.skipped_clean} clean boundaries skipped, "
        f"{bursts['requests']} burst requests served, "
        f"digest {attached.database.digest()[:16]}…"
    )
    if attached.database.digest() != detached.database.digest():
        fail("attaching the snapshot publisher moved the dataset digest")
    if attached.collector.accounting() != detached.collector.accounting():
        fail("attaching the snapshot publisher moved the accounting")
    latest = publisher.latest
    if latest is None:
        fail("chaos stream run published no snapshot at all")
    if latest.sessions != len(attached.collector.sessions):
        fail("final snapshot does not describe the full stored corpus")
    if latest.ledger != attached.stream.ledger_verdict:
        fail("final snapshot carries a stale ledger verdict")

    store_dir = work / "serve-tree"
    export_indexed_tree(attached.database.sessions, store_dir)
    store = SqliteStore.open(index_path_for(store_dir), read_only=True)
    try:
        model = ServiceLoadModel(
            seed=config.seed,
            ticks=20,
            requests_per_tick=8,
            faults=ServiceFaults.from_name("chaos"),
        )
        first = run_load_test(
            QueryService(store=store, seed=config.seed), model
        )
        replay = run_load_test(
            QueryService(store=store, seed=config.seed), model
        )
    finally:
        store.close()
    print(
        f"stream serve load test: {first.total} requests, {first.ok} ok, "
        f"{first.stale} stale, {sum(first.rejected.values())} rejected, "
        f"cache hit ratio {first.cache_hit_ratio:.3f}"
    )
    if first.unserved:
        fail(f"{first.unserved} load-test requests resolved non-contractually")
    if first.digest() != replay.digest():
        fail("same-seed service load test replayed to a different ledger")


def check_shell_memo(scale: float) -> None:
    """Shell-memo leg: the per-sensor line memo must not change one
    record, over whole windows and over one persistent filesystem."""
    sys.path.insert(0, str(ROOT))
    from tests.shell_reference import memo_differential, stateful_differential

    stateful_input = None
    for seed in MEMO_SEEDS:
        for profile in MEMO_PROFILES:
            config = SimulationConfig(
                seed=seed, scale=scale, faults=FaultProfile.from_name(profile)
            )
            result, handled, mismatches = memo_differential(config)
            entries = sum(len(hp._line_memo) for hp in result.honeynet.honeypots)
            print(
                f"shell memo: seed {seed}, {profile}: {len(handled)} sessions "
                f"replayed, {len(mismatches)} differ, {entries} memo entries"
            )
            if mismatches:
                fail(f"memoized records differ from the replay: {mismatches[:5]}")
            if not entries:
                fail("the line memo stored no line")
            if stateful_input is None:
                stateful_input = handled
    entries, mismatches = stateful_differential(stateful_input)
    print(
        f"shell memo, one persistent filesystem: {len(stateful_input)} "
        f"sessions, {len(mismatches)} differ, {entries} memo entries at the end"
    )
    if mismatches:
        fail(f"stateful memoized records differ from the replay: {mismatches[:5]}")


def check_dld(scale: float) -> None:
    """DLD leg: every distinct pair of every matrix a full-window
    reproduction builds must equal the brute-force reference."""
    sys.path.insert(0, str(ROOT))
    from tests.dld_reference import reference_distance, reproduction_matrices

    total = 0.0
    for seed in DLD_SEEDS:
        dataset = build_dataset(SimulationConfig(seed=seed, scale=scale))
        for name, (tokens, matrix) in reproduction_matrices(dataset).items():
            first: dict[tuple[str, ...], int] = {}
            for row, seq in enumerate(tokens):
                first.setdefault(tuple(seq), row)
            rows = list(first.values())
            started = time.perf_counter()
            wrong = [
                (a, b)
                for i, a in enumerate(rows)
                for b in rows[i + 1 :]
                if matrix[a, b] != reference_distance(tokens[a], tokens[b])
            ]
            elapsed = time.perf_counter() - started
            total += elapsed
            pairs = len(rows) * (len(rows) - 1) // 2
            print(
                f"dld: seed {seed}, {name}: {len(rows)} distinct sequences, "
                f"{pairs} pairs, {len(wrong)} differ, reference {elapsed:.1f} s"
            )
            if wrong:
                fail(f"seed {seed} {name}: pairs differ from the reference: "
                     f"{wrong[:5]}")
            index = [first[tuple(seq)] for seq in tokens]
            if np.diag(matrix).any() or not np.array_equal(
                matrix, matrix[np.ix_(index, index)]
            ):
                fail(f"seed {seed} {name}: equal sequences got different rows")
    print(f"dld: reference time {total:.1f} s")


# ----------------------------------------------------------------------
# leg registry (execution order == registration order)
# ----------------------------------------------------------------------
leg("checkpoint")(
    lambda ctx: check_checkpoint_recovery(ctx.config, ctx.reference, ctx.work)
)
leg("export")(lambda ctx: check_export_recovery(ctx.config, ctx.reference, ctx.work))
leg("store")(lambda ctx: check_index_resilience(ctx.reference, ctx.work))
leg("mangled")(lambda ctx: check_mangled_tree_fails(ctx.reference, ctx.work))
leg("flood")(lambda ctx: check_flood_overload(ctx.config))
leg("stream-chaos")(lambda ctx: check_stream_chaos(ctx.config, ctx.work))
leg("stream-serve")(lambda ctx: check_stream_serve(ctx.config, ctx.work))
leg("shell-memo")(lambda ctx: check_shell_memo(ctx.config.scale))
leg("dld")(lambda ctx: check_dld(ctx.config.scale))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=33)
    parser.add_argument("--scale", type=float, default=1e-4)
    parser.add_argument(
        "--keep", type=Path, default=None, metavar="DIR",
        help="keep work artifacts in DIR instead of a temp directory",
    )
    parser.add_argument(
        "--only", choices=sorted(LEGS), default=None, metavar="LEG",
        help="run a single leg instead of the full battery",
    )
    parser.add_argument(
        "--list-legs", action="store_true",
        help="print the registered legs and exit",
    )
    args = parser.parse_args(argv)

    if args.list_legs:
        for name in LEGS:
            print(name)
        return 0

    config = SimulationConfig(
        seed=args.seed,
        scale=args.scale,
        faults=FaultProfile.stress(),
        **SOAK_WINDOW,
    )
    print(f"== soak: stress profile, seed={args.seed}, scale={args.scale} ==")

    work = args.keep or Path(tempfile.mkdtemp(prefix="soak-"))
    work.mkdir(parents=True, exist_ok=True)
    ctx = SoakContext(config=config, work=work)
    selected = [args.only] if args.only else list(LEGS)
    try:
        for name in selected:
            print(f"-- leg: {name} --")
            LEGS[name](ctx)
    finally:
        if args.keep is None:
            shutil.rmtree(work, ignore_errors=True)
    print(f"PASS: all soak checks held ({', '.join(selected)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
