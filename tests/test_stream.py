"""Stream engine: replay differential, supervision, fault determinism.

Four layers of proof that the stream refactor cannot move a byte and
that its robustness layer is deterministic:

* **Replay differential** — a *supervised* fault-free stream produces
  digests, conservation accounting and checkpoint bytes identical to
  the batch engine across {none, paper, stress} × {flood off, burst}.
  (The batch engine itself *is* the stream engine under
  ``StreamPolicy.replay`` — one code path.)
* **Seeded fault determinism** — under the ``chaos`` stream fault
  domain, the same seed reproduces the same breaker and mode-ladder
  transition timelines, the same digests, and a mid-run interrupt
  resumes to the identical final digest.
* **Checkpoint stream section** — degraded supervision state rides the
  checkpoint as an optional checksummed section: tampering is caught,
  pristine checkpoints stay byte-identical to batch checkpoints, and
  batch replay refuses to resume a degraded stream checkpoint.
* **Properties** (hypothesis) — queue-depth-driven backpressure keeps
  the extended conservation law (``admitted == stored + deduplicated``
  with terminal shed/defer buckets), shedding verdicts under critical
  pressure are order-independent, and the breaker state machine is
  internally consistent and seed-deterministic.

Marked ``stream`` so CI can run this suite as its own job leg
(``pytest -m stream``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.attackers.orchestrator import run_simulation
from repro.faults.checkpoint import (
    load_latest_checkpoint,
    save_checkpoint,
)
from repro.faults.plan import FloodFaults
from repro.faults.stream import StreamFaults, compile_day_plan
from repro.honeynet.collector import Collector
from repro.honeypot.session import CommandRecord
from repro.overload.admission import (
    ADMIT,
    DEFER,
    PRESSURE_CRITICAL,
    PRESSURE_HIGH,
    PRESSURE_NONE,
    SHED,
    AdmissionController,
)
from repro.stream import (
    CLOSED,
    HALF_OPEN,
    LEVEL_CRITICAL,
    LEVEL_HIGH,
    LEVEL_OK,
    MODE_ANALYSIS_DEFERRED,
    MODE_FULL,
    MODE_RANK,
    MODE_SHED_ONLY,
    OPEN,
    BoundedStreamQueue,
    CircuitBreaker,
    HeartbeatMonitor,
    StreamPolicy,
    StreamSupervisor,
    run_stream,
)
from repro.stream.breaker import MAX_BACKOFF_S
from repro.util.rng import RngTree
from tests.conftest import (
    PROFILES,
    assert_equivalent,
    make_record,
    short_fault_config,
)

pytestmark = pytest.mark.stream

FLOODS = ("off", "burst")
MATRIX = [
    (profile, flood) for profile in PROFILES for flood in FLOODS
]


def matrix_config(profile: str, flood: str):
    config = short_fault_config(profile)
    if flood == "off":
        return config
    return config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name(flood)
        )
    )


@pytest.fixture(scope="module")
def batch_runs():
    """Serial batch reference runs for the full matrix (read-only)."""
    return {key: run_simulation(matrix_config(*key)) for key in MATRIX}


@pytest.fixture(scope="module")
def stream_runs():
    """Supervised fault-free stream runs for the full matrix."""
    return {
        key: run_stream(matrix_config(*key), policy=StreamPolicy.live())
        for key in MATRIX
    }


def chaos_config():
    return matrix_config("stress", "burst")


@pytest.fixture(scope="module")
def chaos_run():
    """One chaos-supervised run on the harshest matrix cell."""
    return run_stream(chaos_config(), policy=StreamPolicy.chaos())


# ----------------------------------------------------------------------
# replay differential: stream ≡ batch
# ----------------------------------------------------------------------


class TestStreamReplayDifferential:
    @pytest.mark.parametrize("key", MATRIX, ids=lambda k: "-".join(k))
    def test_supervised_stream_equals_serial_batch(
        self, batch_runs, stream_runs, key
    ):
        stream = stream_runs[key]
        assert_equivalent(stream, batch_runs[key])
        # Fault-free supervision never leaves the healthy rung.
        assert stream.stream is not None
        assert stream.stream.mode == MODE_FULL
        assert stream.stream.transitions == []
        assert stream.stream.ledger_days == stream.stream.days

    def test_batch_serial_result_has_no_stream_report(self, batch_runs):
        for result in batch_runs.values():
            assert result.stream is None

    def test_checkpoint_bytes_identical(self, tmp_path):
        """Same day, same state ⇒ byte-identical checkpoint files."""
        config = chaos_config()
        stop = date(2023, 10, 1)
        batch_ckpt = tmp_path / "batch" / "ck.json"
        stream_ckpt = tmp_path / "stream" / "ck.json"
        run_simulation(
            config, checkpoint_path=batch_ckpt, checkpoint_every_days=7,
            stop_after=stop,
        )
        run_stream(
            config, policy=StreamPolicy.live(),
            checkpoint_path=stream_ckpt, checkpoint_every_days=7,
            stop_after=stop,
        )
        assert batch_ckpt.read_bytes() == stream_ckpt.read_bytes()

    def test_telemetry_comparable_view_matches_batch(self):
        """Counters outside ``stream.*`` agree between the engines."""
        config = short_fault_config("paper")
        with telemetry.collecting() as registry:
            run_simulation(config)
        batch_export = registry.export()
        with telemetry.collecting() as registry:
            run_stream(config, policy=StreamPolicy.live())
        stream_export = registry.export()
        assert telemetry.comparable_view(
            batch_export
        ) == telemetry.comparable_view(stream_export)
        # Span parity: the supervised loop is the same loop.
        assert (
            stream_export["spans"]["sim.run/sim.day"]["count"]
            == batch_export["spans"]["sim.run/sim.day"]["count"]
        )
        # Supervision emits its own engine-class counters, but they are
        # merge-only: none survive into the comparable view.
        assert stream_export["counters"]["stream.days"] > 0
        comparable = telemetry.comparable_view(stream_export)
        assert not any(
            name.startswith("stream.") for name in comparable["counters"]
        )


#: SHA-256 over the chaos run's dataset digest, its conservation
#: accounting and its full :class:`StreamReport` (every mode and
#: breaker transition, counter and ledger verdict): what supervision
#: and shedding produce must not move when their code is restructured.
CHAOS_RUN_PIN = "f5acfe9e08ec27b617e356f5d5130724d861d4368139f2a1589752d84b480cc8"


def sha256_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestSupervisionPin:
    def test_chaos_run_outputs_are_pinned(self, chaos_run):
        payload = {
            "digest": chaos_run.database.digest(),
            "accounting": chaos_run.collector.accounting(),
            "stream": dataclasses.asdict(chaos_run.stream),
        }
        assert sha256_json(payload) == CHAOS_RUN_PIN


# ----------------------------------------------------------------------
# seeded stream faults: determinism + the full ladder
# ----------------------------------------------------------------------


class TestStreamFaultDeterminism:
    def test_same_seed_same_timelines(self, chaos_run):
        again = run_stream(chaos_config(), policy=StreamPolicy.chaos())
        assert again.database.digest() == chaos_run.database.digest()
        assert (
            again.collector.accounting() == chaos_run.collector.accounting()
        )
        assert again.stream.transitions == chaos_run.stream.transitions
        assert (
            again.stream.breaker_transitions
            == chaos_run.stream.breaker_transitions
        )

    def test_chaos_exercises_the_ladder(self, chaos_run):
        report = chaos_run.stream
        assert report.stalls > 0
        assert report.skew_days > 0
        assert report.analysis_errors > 0
        assert report.partition_buffered == report.partition_replayed > 0
        modes_hit = {t.to_mode for t in report.transitions}
        assert MODE_ANALYSIS_DEFERRED in modes_hit
        assert MODE_SHED_ONLY in modes_hit
        reasons = {t.reason for t in report.transitions}
        assert "queue-critical" in reasons or "heartbeat-hard" in reasons

    def test_conservation_holds_under_chaos(self, chaos_run):
        collector = chaos_run.collector
        assert collector.accounting_balanced()
        assert collector.admitted == (
            len(collector.sessions) + collector.deduplicated
        )
        assert chaos_run.stream.ledger_days == chaos_run.stream.days

    def test_mode_timeline_counters_emitted(self):
        with telemetry.collecting() as registry:
            result = run_stream(
                chaos_config(), policy=StreamPolicy.chaos()
            )
        counters = registry.export()["counters"]
        transitions = result.stream.transitions
        assert counters["stream.mode.transitions"] == len(transitions)
        for transition in transitions:
            name = (
                f"stream.mode.timeline.{transition.day}."
                f"{transition.from_mode}->{transition.to_mode}."
                f"{transition.reason}"
            )
            assert counters[name] >= 1

    def test_day_plans_compose_independently(self):
        """Each fault kind draws its own stream: adding one knob never
        moves another's decisions."""
        sensors = tuple(f"hp-{i:03d}" for i in range(6))
        tree = RngTree(7).child("stream", "faults")
        day = date(2023, 10, 2)
        chaos = StreamFaults.from_name("chaos")
        stall_only = StreamFaults(stall_probability=chaos.stall_probability)
        full_plan = compile_day_plan(chaos, tree, day, sensors)
        stall_plan = compile_day_plan(stall_only, tree, day, sensors)
        assert full_plan.stall_at_event == stall_plan.stall_at_event
        assert stall_plan.partitioned == frozenset()
        assert stall_plan.error_at_event is None


class TestStreamInterruptResume:
    def test_interrupt_resume_reaches_identical_digest(
        self, tmp_path, chaos_run
    ):
        ckpt = tmp_path / "ck.json"
        run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, checkpoint_every_days=5,
            stop_after=date(2023, 10, 1),
        )
        resumed = run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, resume=True,
        )
        assert resumed.database.digest() == chaos_run.database.digest()
        assert (
            resumed.collector.accounting()
            == chaos_run.collector.accounting()
        )
        assert resumed.stream.mode == chaos_run.stream.mode

    @pytest.fixture()
    def degraded_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, checkpoint_every_days=5,
            stop_after=date(2023, 10, 1),
        )
        loaded, rejected = load_latest_checkpoint(ckpt, chaos_config())
        assert loaded is not None and loaded.stream is not None
        return ckpt

    def test_batch_replay_refuses_degraded_checkpoint(
        self, degraded_checkpoint
    ):
        with pytest.raises(ValueError, match="degraded stream state"):
            run_simulation(
                chaos_config(),
                checkpoint_path=degraded_checkpoint,
                resume=True,
            )

    def test_mismatched_fault_profile_refused(self, degraded_checkpoint):
        with pytest.raises(
            ValueError, match="different stream fault configuration"
        ):
            run_stream(
                chaos_config(), policy=StreamPolicy.live(),
                checkpoint_path=degraded_checkpoint, resume=True,
            )


# ----------------------------------------------------------------------
# checkpoint stream section
# ----------------------------------------------------------------------


class TestStreamCheckpointSection:
    def test_pristine_supervised_checkpoint_has_no_stream_section(
        self, tmp_path
    ):
        config = matrix_config("none", "off")
        ckpt = tmp_path / "ck.json"
        run_stream(
            config, policy=StreamPolicy.live(),
            checkpoint_path=ckpt, checkpoint_every_days=7,
            stop_after=date(2023, 10, 1),
        )
        document = json.loads(ckpt.read_text())
        assert "stream" not in document
        assert "stream" not in document["checksums"]

    def test_tampered_stream_section_is_rejected(self, tmp_path):
        ckpt = tmp_path / "ck.json"
        run_stream(
            chaos_config(), policy=StreamPolicy.chaos(),
            checkpoint_path=ckpt, checkpoint_every_days=5,
            stop_after=date(2023, 10, 1),
        )
        document = json.loads(ckpt.read_text())
        assert "stream" in document
        document["stream"]["mode"] = MODE_FULL  # the tamper
        ckpt.write_text(json.dumps(document))
        for generation in Path(ckpt).parent.glob("ck.json.*"):
            generation.unlink()  # leave only the tampered file
        loaded, rejected = load_latest_checkpoint(ckpt, chaos_config())
        assert loaded is None
        assert rejected and "stream" in rejected[0]

    def test_stream_state_round_trips_through_save(self, tmp_path):
        config = matrix_config("none", "off")
        result = run_simulation(config)
        payload = {"mode": MODE_SHED_ONLY, "transitions": [], "breakers": {}}
        ckpt = tmp_path / "ck.json"
        save_checkpoint(
            ckpt, config, config.end, result.honeynet, result.collector,
            stream_state=payload,
        )
        loaded, rejected = load_latest_checkpoint(ckpt, config)
        assert rejected == []
        assert loaded.stream == payload


# ----------------------------------------------------------------------
# hypothesis properties: backpressure ↔ admission conservation
# ----------------------------------------------------------------------


def _gate(budget=4, queue_capacity=64, shed_probability=0.5):
    return AdmissionController(
        budget=budget,
        queue_capacity=queue_capacity,
        shed_probability=shed_probability,
        tree=RngTree(5).child("gate"),
    )


def _records(specs):
    """Build records from (priority, session_ordinal, sensor) specs."""
    out = []
    for index, (priority, ordinal, sensor) in enumerate(specs):
        record = make_record(
            float(index), f"s-{ordinal}", f"hp-{sensor:03d}"
        )
        if priority >= 1:
            record.commands.append(CommandRecord(raw="uname -a", known=True))
        out.append(record)
    return out


record_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),  # priority class
        st.integers(min_value=0, max_value=49),  # session id (dups ok)
        st.integers(min_value=0, max_value=3),  # sensor
    ),
    max_size=60,
)

pressure_levels = st.sampled_from(
    (PRESSURE_NONE, PRESSURE_HIGH, PRESSURE_CRITICAL)
)


class TestBackpressureAdmissionProperties:
    @given(specs=record_specs, schedule=st.lists(pressure_levels, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_extended_conservation_law(self, specs, schedule):
        """Queue-depth-driven shedding keeps the collector's books
        balanced: ``admitted == stored + deduplicated`` with every
        non-admitted record in a terminal shed bucket."""
        collector = Collector(admission=_gate())
        records = _records(specs)
        pressure = iter(schedule)
        for index, record in enumerate(records):
            if index % 7 == 3:
                level = next(pressure, None)
                if level is not None:
                    collector.admission.apply_backpressure(level)
            collector.ingest(record)
        collector.end_of_day()
        assert collector.accounting_balanced()
        assert collector.admitted == (
            len(collector.sessions) + collector.deduplicated
        )
        accounting = collector.accounting()
        assert accounting["generated"] == len(records)

    @given(specs=record_specs, seed=st.integers(min_value=0, max_value=9))
    @settings(max_examples=40, deadline=None)
    def test_critical_pressure_verdicts_are_order_independent(
        self, specs, seed
    ):
        """With a zero effective budget and roomy deferral queues, every
        verdict is a pure function of the record — any arrival order
        produces the same per-record verdict."""
        records = _records(specs)
        forward = _gate()
        forward.apply_backpressure(PRESSURE_CRITICAL)
        verdicts = {
            id(record): forward.offer(record) for record in records
        }
        import random as _random

        shuffled = list(records)
        _random.Random(seed).shuffle(shuffled)
        gate = _gate()
        gate.apply_backpressure(PRESSURE_CRITICAL)
        for record in shuffled:
            assert gate.offer(record) == verdicts[id(record)]

    def test_pressure_levels_shrink_the_budget(self):
        gate = _gate(budget=4)
        gate.apply_backpressure(PRESSURE_HIGH)
        verdicts = [
            gate.offer(make_record(float(i), f"s-{i}")) for i in range(4)
        ]
        assert verdicts.count(ADMIT) == 2  # budget // 2
        gate.apply_backpressure(PRESSURE_CRITICAL)
        assert gate.offer(make_record(9.0, "s-z")) == SHED
        gate.apply_backpressure(PRESSURE_NONE)
        gate.drain()
        verdicts = [
            gate.offer(make_record(float(i), f"t-{i}")) for i in range(5)
        ]
        assert verdicts.count(ADMIT) == 4  # full budget restored

    def test_unknown_pressure_level_rejected(self):
        with pytest.raises(ValueError, match="backpressure level"):
            _gate().apply_backpressure(7)

    def test_drain_does_not_reset_pressure(self):
        """The stream engine owns pressure release; the day boundary
        resets only the budget."""
        gate = _gate(budget=4)
        gate.apply_backpressure(PRESSURE_CRITICAL)
        record = make_record(0.0, "s-0")
        record.commands.append(CommandRecord(raw="ls", known=True))
        assert gate.offer(record) in (SHED, DEFER)
        gate.drain()
        assert gate.offer(make_record(1.0, "s-1")) == SHED


# ----------------------------------------------------------------------
# hypothesis properties: breaker, queue, ladder, heartbeats
# ----------------------------------------------------------------------


breaker_ops = st.lists(
    st.sampled_from(("fail", "ok", "trip", "wait")), max_size=40
)


def _drive_breaker(seed, ops):
    breaker = CircuitBreaker(stage="ingest", tree=RngTree(seed).child("breaker"))
    now = 0.0
    for index, op in enumerate(ops):
        now += 1.0
        if op == "wait":
            # past the longest probe delay (the cap, jittered up by half)
            now += 1.5 * MAX_BACKOFF_S
            breaker.allow(now, 1, index)
        elif op == "trip":
            breaker.trip(now, 1, index, "heartbeat-hard")
        elif breaker.allow(now, 1, index):
            if op == "fail":
                breaker.record_failure(now, 1, index)
            else:
                breaker.record_success(now, 1, index)
    return breaker


class TestBreakerProperties:
    @given(seed=st.integers(min_value=0, max_value=99), ops=breaker_ops)
    @settings(max_examples=80, deadline=None)
    def test_state_machine_invariants(self, seed, ops):
        breaker = _drive_breaker(seed, ops)
        assert breaker.state in (CLOSED, OPEN, HALF_OPEN)
        # The transition chain is contiguous.
        for previous, transition in zip(
            breaker.transitions, breaker.transitions[1:]
        ):
            assert transition.from_state == previous.to_state
        # Every trip is a transition to OPEN, counted exactly.
        opens = [
            t for t in breaker.transitions if t.to_state == OPEN
        ]
        assert len(opens) == breaker.trips
        # An open breaker always has a scheduled probe.
        if breaker.state == OPEN:
            assert breaker.probe_at is not None

    @given(seed=st.integers(min_value=0, max_value=99), ops=breaker_ops)
    @settings(max_examples=40, deadline=None)
    def test_same_seed_same_timeline(self, seed, ops):
        first = _drive_breaker(seed, ops)
        second = _drive_breaker(seed, ops)
        assert first.transitions == second.transitions
        assert first.snapshot() == second.snapshot()

    @given(seed=st.integers(min_value=0, max_value=99), ops=breaker_ops)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_restore_round_trip(self, seed, ops):
        breaker = _drive_breaker(seed, ops)
        clone = CircuitBreaker(stage="ingest", tree=RngTree(seed).child("breaker"))
        clone.restore(breaker.snapshot())
        assert clone.snapshot() == breaker.snapshot()
        assert clone.dirty == breaker.dirty


class TestQueueProperties:
    @given(
        ops=st.lists(st.sampled_from(("push", "pop")), max_size=50),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_fifo_bounds_and_levels(self, ops, capacity):
        queue = BoundedStreamQueue(
            name="q", capacity=capacity,
            high_watermark=max(1, capacity // 2),
        )
        model: list[int] = []
        for index, op in enumerate(ops):
            if op == "push" and not queue.full:
                queue.push(index)
                model.append(index)
            elif op == "pop" and queue.depth:
                assert queue.pop() == model.pop(0)
            assert queue.depth == len(model) <= capacity
            level = queue.level()
            if queue.full:
                assert level == LEVEL_CRITICAL
            elif queue.depth >= queue.high_watermark:
                assert level == LEVEL_HIGH
            else:
                assert level == LEVEL_OK
        assert queue.pushed - queue.popped == queue.depth
        assert queue.peak_depth <= capacity

    def test_push_past_capacity_raises(self):
        queue = BoundedStreamQueue(name="q", capacity=1, high_watermark=1)
        queue.push(1)
        with pytest.raises(OverflowError):
            queue.push(2)


def _supervisor():
    return StreamSupervisor.build(RngTree(3).child("stream"), queue_capacity=8)


class TestSupervisorLadder:
    @given(
        moves=st.lists(
            st.sampled_from(
                (MODE_FULL, MODE_ANALYSIS_DEFERRED, MODE_SHED_ONLY)
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_escalate_only_climbs(self, moves):
        supervisor = _supervisor()
        for index, mode in enumerate(moves):
            before = MODE_RANK[supervisor.mode]
            changed = supervisor.escalate(mode, "test", 1, index)
            after = MODE_RANK[supervisor.mode]
            assert after >= before
            assert changed == (after > before)
        # The transition log replays to the final mode.
        mode = MODE_FULL
        for transition in supervisor.transitions:
            assert transition.from_mode == mode
            mode = transition.to_mode
        assert mode == supervisor.mode

    def test_recover_steps_down_to_breaker_floor(self):
        supervisor = _supervisor()
        supervisor.escalate(MODE_SHED_ONLY, "queue-critical", 1, 1)
        supervisor.breakers["analysis"].trip(0.0, 1, 1, "analysis-error")
        assert supervisor.recovery_target() == MODE_ANALYSIS_DEFERRED
        assert supervisor.recover("day-boundary-recovery", 1, 2)
        assert supervisor.mode == MODE_ANALYSIS_DEFERRED
        supervisor.breakers["analysis"].state = CLOSED
        assert supervisor.recover("day-boundary-recovery", 1, 3)
        assert supervisor.mode == MODE_FULL

    def test_snapshot_restore_round_trip(self):
        supervisor = _supervisor()
        supervisor.escalate(MODE_ANALYSIS_DEFERRED, "analysis", 2, 5)
        supervisor.breakers["ingest"].trip(1.0, 2, 5, "queue-critical")
        clone = _supervisor()
        clone.restore(supervisor.snapshot())
        assert clone.snapshot() == supervisor.snapshot()
        assert clone.dirty

    def test_unknown_mode_rejected(self):
        supervisor = _supervisor()
        with pytest.raises(ValueError, match="unknown stream mode"):
            supervisor.set_mode("panic", "test", 1, 1)
        with pytest.raises(ValueError, match="unknown stream mode"):
            supervisor.restore({"mode": "panic"})


class TestHeartbeatEpisodes:
    def test_breaches_counted_once_per_episode(self):
        monitor = HeartbeatMonitor()
        monitor.reset(0.0)
        assert monitor.check("ingest", 1.0) is None
        assert monitor.check("ingest", 5.0) == "soft"
        assert monitor.check("ingest", 6.0) is None  # same episode
        assert monitor.check("ingest", 9.0) == "hard"
        assert monitor.check("ingest", 50.0) is None  # still hard
        monitor.beat("ingest", 50.0)
        assert monitor.check("ingest", 51.0) is None  # healthy again
        assert monitor.check("ingest", 60.0) == "hard"
        assert monitor.soft_breaches == 1
        assert monitor.hard_breaches == 2
