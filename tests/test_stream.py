"""Stream engine: pipeline differential, supervision, fault determinism.

Four layers of proof that supervision cannot move a byte and that its
robustness layer is deterministic:

* **Pipeline differential** — every run is a stream run
  (``run_simulation`` runs under ``StreamPolicy.live``, whose inert
  faults send records straight to the channel).  A policy whose stream
  faults are not inert but never fire sends every record through the
  supervised pipeline instead, and must produce the same digests,
  conservation accounting, checkpoint bytes, comparable telemetry and
  :class:`StreamReport` across {none, paper, stress} × {flood off,
  burst}.
* **Seeded fault determinism** — under the ``chaos`` stream fault
  domain, the same seed reproduces the same breaker and mode
  timelines, the same digests, and a mid-run interrupt resumes to the
  identical final digest; without an admission gate, chaos supervision
  is digest-neutral.
* **Checkpoint stream section** — degraded supervision state rides the
  checkpoint as an optional checksummed section: tampering is caught,
  pristine checkpoints carry no stream section, and a run under other
  stream faults refuses to resume a degraded stream checkpoint.
* **Properties** (hypothesis) — queue-depth-driven backpressure keeps
  the extended conservation law (``admitted == stored + deduplicated``
  with terminal shed/defer buckets), shedding verdicts under critical
  pressure are order-independent, the breaker state machine is
  internally consistent and seed-deterministic, and the degraded mode
  is a view of the ingest breaker.

Marked ``stream`` so CI can run this suite as its own job leg
(``pytest -m stream``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
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
    MODE_FULL,
    MODE_SHED_ONLY,
    OPEN,
    BoundedStreamQueue,
    CircuitBreaker,
    HeartbeatMonitor,
    StreamPolicy,
    StreamSupervisor,
    run_stream,
)
from repro.stream import engine
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


#: Stream faults that are not inert, so every record crosses the
#: supervised pipeline (``StreamSubstrate._push``), but whose one
#: per-day coin never comes up: nothing ever stalls.
NEVER_FIRING = StreamPolicy(faults=StreamFaults(stall_probability=1e-12))


@pytest.fixture(scope="module")
def stream_runs():
    """Runs through the supervised pipeline for the full matrix."""
    return {
        key: run_stream(matrix_config(*key), policy=NEVER_FIRING)
        for key in MATRIX
    }


def chaos_config():
    return matrix_config("stress", "burst")


@pytest.fixture(scope="module")
def chaos_run():
    """One chaos-supervised run on the harshest matrix cell."""
    return run_stream(chaos_config(), policy=StreamPolicy.chaos())


# ----------------------------------------------------------------------
# pipeline differential: supervised pipeline ≡ direct delivery
# ----------------------------------------------------------------------


class TestStreamReplayDifferential:
    @pytest.mark.parametrize("key", MATRIX, ids=lambda k: "-".join(k))
    def test_supervised_stream_equals_serial_batch(
        self, batch_runs, stream_runs, key
    ):
        stream = stream_runs[key]
        assert_equivalent(stream, batch_runs[key])
        # A pipeline that never degrades reports what direct delivery
        # reports, field for field.
        assert stream.stream == batch_runs[key].stream

    def test_batch_report_audits_every_day(self, batch_runs):
        """A batch run is supervised too: full mode throughout, every
        day boundary audited, every produced record counted."""
        for key, result in batch_runs.items():
            report = result.stream
            config = matrix_config(*key)
            assert report.mode == MODE_FULL
            assert report.transitions == []
            assert report.breaker_transitions == []
            assert report.days == (config.end - config.start).days + 1
            assert report.ledger_days == report.days
            # Each honeypot counts the sessions it handled: every record
            # produced, before transport duplicates or loss.
            produced = sum(
                honeypot._counter for honeypot in result.honeynet.honeypots
            )
            assert report.events == produced

    def test_only_stream_faults_route_records_through_the_pipeline(
        self, monkeypatch
    ):
        """The differential above compares two paths: inert faults
        deliver directly, faults that never fire push every record."""
        pushed = []
        push = engine.StreamSubstrate._push

        def counting_push(self, record):
            pushed.append(record.session_id)
            return push(self, record)

        monkeypatch.setattr(engine.StreamSubstrate, "_push", counting_push)
        config = matrix_config("none", "off")
        live = run_stream(config, policy=StreamPolicy.live())
        assert pushed == []
        piped = run_stream(config, policy=NEVER_FIRING)
        assert len(pushed) == piped.stream.events == live.stream.events > 0

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
            config, policy=NEVER_FIRING,
            checkpoint_path=stream_ckpt, checkpoint_every_days=7,
            stop_after=stop,
        )
        assert batch_ckpt.read_bytes() == stream_ckpt.read_bytes()

    def test_telemetry_comparable_view_matches_batch(self):
        """Counters agree between the two delivery paths."""
        config = short_fault_config("paper")
        with telemetry.collecting() as registry:
            run_simulation(config)
        batch_export = registry.export()
        with telemetry.collecting() as registry:
            run_stream(config, policy=NEVER_FIRING)
        stream_export = registry.export()
        assert telemetry.comparable_view(
            batch_export
        ) == telemetry.comparable_view(stream_export)
        # Span parity: the supervised loop is the same loop.
        assert (
            stream_export["spans"]["sim.run/sim.day"]["count"]
            == batch_export["spans"]["sim.run/sim.day"]["count"]
        )
        # Every run emits the supervision layer's engine-class counters,
        # but they are merge-only: none survive into the comparable
        # view.
        assert batch_export["counters"]["stream.days"] > 0
        assert stream_export["counters"] == batch_export["counters"]
        comparable = telemetry.comparable_view(stream_export)
        assert not any(
            name.startswith("stream.") for name in comparable["counters"]
        )


#: SHA-256 over the chaos run's dataset digest, its conservation
#: accounting and its full :class:`StreamReport` (every mode and
#: breaker transition, counter and ledger verdict): what supervision
#: and shedding produce must not move when their code is restructured.
CHAOS_RUN_PIN = "9dca230b044cf5c6a999a30df25349edacccc052db139750d1268e022c868e2e"

#: SHA-256 over the chaos run's dataset digest, its conservation
#: accounting and the ingest breaker's transitions: the data shedding
#: produced and the state machine that drove it, without the report's
#: own shape.
CHAOS_DATA_PIN = "6dcdd4fa382ad9e25ea1a146794bcf331dc9837b92adcec8e86c4fccb166f614"


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

    def test_chaos_run_data_is_pinned(self, chaos_run):
        payload = {
            "digest": chaos_run.database.digest(),
            "accounting": chaos_run.collector.accounting(),
            "ingest_breaker": [
                t.as_dict() for t in chaos_run.stream.breaker_transitions
            ],
        }
        assert sha256_json(payload) == CHAOS_DATA_PIN


# ----------------------------------------------------------------------
# seeded stream faults: determinism + the degraded mode
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
        assert report.forced_drains > 0
        assert report.partition_buffered == report.partition_replayed > 0
        assert report.heartbeat_hard_breaches > 0
        modes_hit = {t.to_state for t in report.transitions}
        assert modes_hit == {MODE_FULL, MODE_SHED_ONLY}
        reasons = {t.reason for t in report.transitions}
        assert reasons == {"queue-critical", "heartbeat-hard", "probe-succeeded"}

    @pytest.mark.parametrize("profile", PROFILES)
    def test_chaos_without_a_gate_equals_batch(self, batch_runs, profile):
        """Stalls, partitions and skew delay and reorder nothing the
        collector sees: with no admission gate, a chaos run is the
        fault-free run, byte for byte."""
        result = run_stream(
            matrix_config(profile, "off"), policy=StreamPolicy.chaos()
        )
        assert result.stream.transitions
        assert_equivalent(result, batch_runs[(profile, "off")])

    def test_conservation_holds_under_chaos(self, chaos_run):
        collector = chaos_run.collector
        assert collector.accounting_balanced()
        assert collector.admitted == (
            len(collector.sessions) + collector.deduplicated
        )
        assert chaos_run.stream.ledger_days == chaos_run.stream.days

    def test_mode_timeline_counters_emitted(self):
        """The ladder's counters tally the timeline: all transitions, and
        the transitions into each rung."""
        with telemetry.collecting() as registry:
            result = run_stream(
                chaos_config(), policy=StreamPolicy.chaos()
            )
        counters = registry.export()["counters"]
        transitions = result.stream.transitions
        assert counters["stream.mode.transitions"] == len(transitions)
        for mode, count in Counter(t.to_state for t in transitions).items():
            assert counters[f"stream.mode.to.{mode}"] == count

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
        assert stall_plan.clock_skew_s == 0.0


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
        assert resumed.stream.transitions == chaos_run.stream.transitions

    def test_resumed_run_counts_only_what_it_adds(self, tmp_path):
        """The restored timeline and ledger days were counted by the run
        that wrote the checkpoint; the resumed run's telemetry adds only
        its own, so the two runs' counters total the uninterrupted
        run's."""
        config = matrix_config("none", "off")
        with telemetry.collecting() as registry:
            whole = run_stream(config, policy=StreamPolicy.chaos())
        expected = registry.export()["counters"]
        ckpt = tmp_path / "ck.json"
        with telemetry.collecting() as first:
            run_stream(
                config, policy=StreamPolicy.chaos(),
                checkpoint_path=ckpt, checkpoint_every_days=5,
                stop_after=date(2023, 10, 5),
            )
        loaded, _ = load_latest_checkpoint(ckpt, config)
        assert loaded.stream is not None
        with telemetry.collecting() as second:
            resumed = run_stream(
                config, policy=StreamPolicy.chaos(),
                checkpoint_path=ckpt, resume=True,
            )
        assert resumed.stream.transitions == whole.stream.transitions
        halves = (first.export()["counters"], second.export()["counters"])
        for name in (
            "stream.days",
            "stream.ledger.days_balanced",
            "stream.mode.transitions",
            f"stream.mode.to.{MODE_FULL}",
            f"stream.mode.to.{MODE_SHED_ONLY}",
        ):
            assert sum(half.get(name, 0) for half in halves) == expected[name]

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
        with pytest.raises(
            ValueError, match="different stream fault configuration"
        ):
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
        document["stream"]["breaker"]["trips"] += 1  # the tamper
        ckpt.write_text(json.dumps(document))
        for generation in Path(ckpt).parent.glob("ck.json.*"):
            generation.unlink()  # leave only the tampered file
        loaded, rejected = load_latest_checkpoint(ckpt, chaos_config())
        assert loaded is None
        assert rejected and "stream" in rejected[0]

    def test_stream_state_round_trips_through_save(self, tmp_path):
        config = matrix_config("none", "off")
        result = run_simulation(config)
        payload = {"breaker": {"state": OPEN, "trips": 1}, "clock": 1.5}
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
                assert level == PRESSURE_CRITICAL
            elif queue.depth >= queue.high_watermark:
                assert level == PRESSURE_HIGH
            else:
                assert level == PRESSURE_NONE
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
    """The degraded mode is a view of the ingest breaker."""

    @given(seed=st.integers(min_value=0, max_value=99), ops=breaker_ops)
    @settings(max_examples=60, deadline=None)
    def test_mode_is_a_view_of_the_breaker(self, seed, ops):
        supervisor = _supervisor()
        supervisor.breaker = _drive_breaker(seed, ops)
        breaker = supervisor.breaker
        assert supervisor.mode == (
            MODE_FULL if breaker.state == CLOSED else MODE_SHED_ONLY
        )
        # The timeline alternates between the two modes, replays to the
        # current one, and stamps each entry like a breaker transition.
        stamps = {(t.day, t.event, t.reason) for t in breaker.transitions}
        mode = MODE_FULL
        for transition in supervisor.transitions:
            assert transition.from_state == mode != transition.to_state
            assert (transition.day, transition.event, transition.reason) in stamps
            mode = transition.to_state
        assert mode == supervisor.mode

    def test_half_open_probe_restores_full(self):
        supervisor = _supervisor()
        breaker = supervisor.breaker
        breaker.trip(0.0, 1, 1, "queue-critical")
        assert supervisor.mode == MODE_SHED_ONLY
        assert breaker.allow(1.5 * MAX_BACKOFF_S, 1, 2)
        assert breaker.state == HALF_OPEN
        assert supervisor.mode == MODE_SHED_ONLY  # the probe is in flight
        breaker.record_success(1.5 * MAX_BACKOFF_S, 1, 2)
        assert supervisor.mode == MODE_FULL
        assert [t.as_dict() for t in supervisor.transitions] == [
            {"day": 1, "event": 1, "from": MODE_FULL, "to": MODE_SHED_ONLY,
             "reason": "queue-critical"},
            {"day": 1, "event": 2, "from": MODE_SHED_ONLY, "to": MODE_FULL,
             "reason": "probe-succeeded"},
        ]

    def test_snapshot_restore_round_trip(self):
        supervisor = _supervisor()
        supervisor.breaker.trip(1.0, 2, 5, "queue-critical")
        clone = _supervisor()
        clone.restore(supervisor.snapshot())
        assert clone.snapshot() == supervisor.snapshot()
        assert clone.mode == MODE_SHED_ONLY
        assert clone.transitions == supervisor.transitions
        assert clone.dirty

    def test_unknown_breaker_state_rejected(self):
        snapshot = _supervisor().snapshot()
        snapshot["breaker"]["state"] = "panic"
        with pytest.raises(ValueError, match="unknown breaker state"):
            _supervisor().restore(snapshot)


class TestHeartbeatEpisodes:
    def test_breaches_counted_once_per_episode(self):
        monitor = HeartbeatMonitor()
        monitor.reset(0.0)
        assert monitor.check(1.0) is None
        assert monitor.check(5.0) == "soft"
        assert monitor.check(6.0) is None  # same episode
        assert monitor.check(9.0) == "hard"
        assert monitor.check(50.0) is None  # still hard
        monitor.beat(50.0)
        assert monitor.check(51.0) is None  # healthy again
        assert monitor.check(60.0) == "hard"
        assert monitor.soft_breaches == 1
        assert monitor.hard_breaches == 2


class TestCheckpointCadence:
    @pytest.mark.parametrize("every", [0, -1])
    @pytest.mark.parametrize("run", [run_simulation, run_stream])
    def test_cadence_below_one_is_refused_before_simulating(
        self, tmp_path, monkeypatch, run, every
    ):
        def simulate_day(*args):
            raise AssertionError("simulated a day")

        monkeypatch.setattr(engine, "simulate_day", simulate_day)
        ckpt = tmp_path / "ck.json"
        with pytest.raises(ValueError, match="checkpoint_every_days"):
            run(
                matrix_config("none", "off"),
                checkpoint_path=ckpt,
                checkpoint_every_days=every,
            )
        assert not ckpt.exists()
