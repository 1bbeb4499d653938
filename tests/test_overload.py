"""Overload robustness: admission control and load-shedding.

Two layers of coverage:

* unit — the admission gate's verdicts, the deadline policy, the flood
  presets, and the collector's extended conservation accounting;
* differential — under flood a checkpointed, resumed run must equal the
  uninterrupted one byte for byte, and a flood that is switched *off*
  must leave every pre-overload byte (digest, fingerprint, checkpoint
  counters section) untouched and emit no overload metrics.
"""

from __future__ import annotations

import dataclasses
import json
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.faults.checkpoint import (
    config_fingerprint,
    read_checkpoint_counters,
    save_checkpoint,
)
from repro.faults.coverage import CoverageError, overload_note, validate_coverage
from repro.faults.plan import FaultProfile, FloodFaults
from repro.honeynet.collector import Collector
from repro.honeypot.cowrie import DEFAULT_SESSION_TIMEOUT_S, CowrieHoneypot
from repro.honeypot.session import CommandRecord, FileEvent, FileOp
from repro.overload.admission import (
    ADMIT,
    DEFER,
    SHED,
    AdmissionController,
    build_admission_controller,
    record_priority,
)
from repro.overload.watchdog import DeadlinePolicy
from repro.util.rng import RngTree
from tests.conftest import make_record, short_fault_config

#: ``config_fingerprint(DEFAULT_CONFIG)`` as pinned *before* the
#: overload subsystem existed.  The inert flood default must keep
#: reproducing exactly this, or every old checkpoint becomes unreadable.
PRE_OVERLOAD_FINGERPRINT = (
    "215c3cecf9f28eaaac6326435e568e4ed7c3a452c33ed057c9546d67be3a9b81"
)

#: ``config_fingerprint`` of the default config under the ``none``
#: profile, pinned alongside the paper one: retiring the worker-crash
#: knob must leave none/paper checkpoints readable.
NONE_PROFILE_FINGERPRINT = (
    "3b8e4d3274dd14c0bb1634c57cae6d675b8a3c464b9cf0d418c274d3e8e189d1"
)


def flood_config(preset: str, profile: str = "paper") -> SimulationConfig:
    """The SHORT_WINDOW differential config with a flood preset on."""
    config = short_fault_config(profile)
    return config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name(preset)
        )
    )


def tiny_flood_config(
    seed: int = 5,
    budget: int | None = 40,
    shed_probability: float = 0.5,
    burst_sessions: int = 300,
) -> SimulationConfig:
    """A four-day window that floods hard — fast enough for properties."""
    return SimulationConfig(
        seed=seed,
        scale=1e-4,
        start=date(2023, 3, 1),
        end=date(2023, 3, 4),
        faults=dataclasses.replace(
            FaultProfile.none(),
            flood=FloodFaults(
                burst_probability=0.8,
                burst_sessions=burst_sessions,
                daily_session_budget=budget,
                sensor_queue_capacity=4,
                shed_probability=shed_probability,
            ),
        ),
    )


def command_record(start: float, session_id: str, honeypot_id: str = "hp-000"):
    record = make_record(start, session_id, honeypot_id)
    record.commands.append(CommandRecord(raw="uname -a", known=True))
    return record


def file_record(start: float, session_id: str, honeypot_id: str = "hp-000"):
    record = command_record(start, session_id, honeypot_id)
    record.file_events.append(FileEvent("/tmp/x", FileOp.CREATE, "aa"))
    return record


class TestSessionTimeoutConstant:
    """Satellite: one canonical 180s constant, config derives from it."""

    def test_single_source_of_truth(self):
        assert DEFAULT_SESSION_TIMEOUT_S == 180.0
        field = CowrieHoneypot.__dataclass_fields__["timeout_s"]
        assert field.default == DEFAULT_SESSION_TIMEOUT_S
        assert SimulationConfig().session_timeout_s == DEFAULT_SESSION_TIMEOUT_S

    def test_config_tracks_honeypot_constant(self):
        config_field = SimulationConfig.__dataclass_fields__["session_timeout_s"]
        assert config_field.default is DEFAULT_SESSION_TIMEOUT_S


class TestFloodFaults:
    def test_default_is_inert(self):
        flood = FloodFaults()
        assert flood.inert and not flood.floods and not flood.gates

    def test_presets(self):
        assert FloodFaults.from_name("off").inert
        burst = FloodFaults.from_name("burst")
        assert burst.floods and burst.gates and not burst.inert
        storm = FloodFaults.from_name("storm")
        assert storm.burst_sessions > burst.burst_sessions
        assert storm.daily_session_budget < burst.daily_session_budget

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown flood profile"):
            FloodFaults.from_name("tsunami")

    def test_validation(self):
        with pytest.raises(ValueError, match="burst_probability"):
            FloodFaults(burst_probability=1.5)
        with pytest.raises(ValueError, match="burst_sessions"):
            FloodFaults(burst_sessions=-1)
        with pytest.raises(ValueError, match="daily_session_budget"):
            FloodFaults(daily_session_budget=-1)
        with pytest.raises(ValueError, match="sensor_queue_capacity"):
            FloodFaults(sensor_queue_capacity=-1)

    def test_budget_without_bursts_still_gates(self):
        flood = FloodFaults(daily_session_budget=10)
        assert flood.gates and not flood.floods and not flood.inert

    def test_flood_stays_out_of_profile_repr(self):
        """repr=False keeps old checkpoint fingerprints valid."""
        base = FaultProfile.stress()
        flooded = dataclasses.replace(
            base, flood=FloodFaults.from_name("storm")
        )
        assert repr(flooded) == repr(base)
        assert "flood" not in repr(base)


class TestConfigFingerprint:
    def test_pre_overload_fingerprint_pinned(self):
        assert config_fingerprint(DEFAULT_CONFIG) == PRE_OVERLOAD_FINGERPRINT

    def test_none_profile_fingerprint_pinned(self):
        config = DEFAULT_CONFIG.replace(faults=FaultProfile.none())
        assert config_fingerprint(config) == NONE_PROFILE_FINGERPRINT

    def test_active_flood_changes_fingerprint(self):
        flooded = DEFAULT_CONFIG.replace(
            faults=dataclasses.replace(
                DEFAULT_CONFIG.faults, flood=FloodFaults.from_name("burst")
            )
        )
        assert config_fingerprint(flooded) != PRE_OVERLOAD_FINGERPRINT


class TestRecordPriority:
    def test_noop_is_lowest(self):
        assert record_priority(make_record(0.0)) == 0

    def test_commands_rank_above_noops(self):
        assert record_priority(command_record(0.0, "c-1")) == 1

    def test_file_events_rank_highest(self):
        assert record_priority(file_record(0.0, "f-1")) == 2


class TestAdmissionController:
    def controller(self, budget=2, capacity=2, shed_probability=0.5, seed=1):
        return AdmissionController(
            budget=budget,
            queue_capacity=capacity,
            shed_probability=shed_probability,
            tree=RngTree(seed).child("overload"),
        )

    def test_under_budget_everything_admitted(self):
        gate = self.controller(budget=3)
        verdicts = [gate.offer(make_record(i, f"s-{i}")) for i in range(3)]
        assert verdicts == [ADMIT, ADMIT, ADMIT]

    def test_over_budget_noops_are_shed(self):
        gate = self.controller(budget=1)
        assert gate.offer(make_record(0, "s-0")) == ADMIT
        assert gate.offer(make_record(1, "s-1")) == SHED

    def test_over_budget_file_sessions_are_deferred(self):
        gate = self.controller(budget=0)
        assert gate.offer(file_record(0, "f-0")) == DEFER

    def test_command_coin_is_keyed_by_session_id(self):
        """The same session id gets the same verdict in any arrival
        order — the property that makes shedding independent of the
        stream's delivery order."""
        records = [command_record(i, f"cmd-{i}") for i in range(30)]
        gate_a = self.controller(budget=0, capacity=100)
        gate_b = self.controller(budget=0, capacity=100)
        forward = {r.session_id: gate_a.offer(r) for r in records}
        backward = {
            r.session_id: gate_b.offer(r) for r in reversed(records)
        }
        assert forward == backward
        assert SHED in forward.values() and DEFER in forward.values()

    def test_full_queue_sheds(self):
        gate = self.controller(budget=0, capacity=1)
        assert gate.offer(file_record(0, "f-0")) == DEFER
        assert gate.offer(file_record(1, "f-1")) == SHED

    def test_drain_is_sorted_by_sensor_and_resets_budget(self):
        gate = self.controller(budget=0, capacity=4)
        late = file_record(0, "f-b1", honeypot_id="hp-001")
        early = file_record(1, "f-a1", honeypot_id="hp-000")
        later = file_record(2, "f-b2", honeypot_id="hp-001")
        for record in (late, early, later):
            assert gate.offer(record) == DEFER
        assert gate.drain() == [early, late, later]
        assert gate.drain() == []
        # Budget reset: the next day admits again.
        gate.budget = 1
        assert gate.offer(make_record(3, "s-next")) == ADMIT

    def test_builder_returns_none_when_unbounded(self):
        tree = RngTree(1)
        assert build_admission_controller(None, tree) is None
        assert build_admission_controller(FloodFaults(), tree) is None
        floods_only = FloodFaults(burst_probability=0.5, burst_sessions=10)
        assert build_admission_controller(floods_only, tree) is None

    def test_builder_wires_the_preset(self):
        gate = build_admission_controller(
            FloodFaults.from_name("burst"), RngTree(1)
        )
        assert gate.budget == 200
        assert gate.queue_capacity == 8
        assert gate.shed_probability == 0.4


class TestCollectorGate:
    def gated_collector(self, budget=2):
        return Collector(
            outages=(),
            admission=AdmissionController(
                budget=budget,
                queue_capacity=8,
                shed_probability=1.0,
                tree=RngTree(7).child("overload"),
            ),
        )

    def test_shed_is_a_terminal_bucket(self):
        collector = self.gated_collector(budget=2)
        for index in range(4):
            collector.ingest(make_record(index, f"s-{index}"))
        accounting = collector.accounting()
        assert accounting["admitted"] == 2
        assert accounting["shed"] == 2
        assert accounting["stored"] == 2
        assert collector.accounting_balanced()

    def test_deferred_records_land_at_end_of_day(self):
        collector = self.gated_collector(budget=1)
        collector.ingest(make_record(0, "s-0"))
        collector.ingest(file_record(1, "f-0"))
        assert collector.deferred == 1
        assert len(collector.sessions) == 1
        assert collector.end_of_day() == 1
        assert len(collector.sessions) == 2
        assert collector.admitted == 2
        assert collector.accounting_balanced()

    def test_admitted_counts_events_not_a_bucket(self):
        """admitted == stored + deduplicated when every record passes
        through the gate (a duplicate is admitted, then deduplicated)."""
        collector = self.gated_collector(budget=10)
        collector.ingest(make_record(0, "dup"))
        collector.ingest(make_record(1, "dup"))
        accounting = collector.accounting()
        assert accounting["admitted"] == 2
        assert accounting["stored"] == 1
        assert accounting["deduplicated"] == 1
        assert collector.accounting_balanced()

    def test_ungated_collector_unchanged(self):
        collector = Collector(outages=())
        collector.ingest(make_record(0, "s-0"))
        assert collector.end_of_day() == 0
        accounting = collector.accounting()
        assert accounting["admitted"] == 0
        assert accounting["shed"] == 0
        assert accounting["deferred"] == 0


@pytest.fixture(scope="module")
def flood_baselines():
    """One serial reference run per flood preset (shared, read-only)."""
    return {
        preset: run_simulation(flood_config(preset))
        for preset in ("burst", "storm")
    }


class TestFloodDifferential:
    """Flood presets engage the gate, and resume reproduces the bytes."""

    def test_burst_actually_sheds(self, flood_baselines):
        collector = flood_baselines["burst"].collector
        assert collector.shed > 0
        assert collector.admitted == (
            len(collector.sessions) + collector.deduplicated
        )

    def test_storm_exercises_deferral(self, flood_baselines):
        assert flood_baselines["storm"].collector.deferred > 0

    def test_flood_checkpoint_resume_matches(self, tmp_path, flood_baselines):
        config = flood_config("burst")
        checkpoint = tmp_path / "flood.ckpt"
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=date(2023, 10, 2),
        )
        resumed = run_simulation(config, checkpoint_path=checkpoint, resume=True)
        assert resumed.database.digest() == (
            flood_baselines["burst"].database.digest()
        )


class TestFloodOffIsByteIdentical:
    """Flood disabled ⇒ every pre-overload artifact byte survives."""

    def test_checkpoint_counters_section_unchanged(self, tmp_path):
        config = short_fault_config("paper")
        checkpoint = tmp_path / "quiet.ckpt"
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=10,
            stop_after=date(2023, 10, 2),
        )
        document = json.loads(checkpoint.read_text())
        counters = document["counters"]
        for key in ("admitted", "shed", "deferred"):
            assert key not in counters
        assert document["fingerprint"] == config_fingerprint(config)

    def test_flooded_checkpoint_carries_the_ledger(self, tmp_path):
        config = flood_config("burst")
        checkpoint = tmp_path / "flooded.ckpt"
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=10,
            stop_after=date(2023, 10, 2),
        )
        counters = read_checkpoint_counters(checkpoint)
        assert counters["shed"] > 0
        assert counters["generated"] == (
            counters["stored"]
            + counters.get("dropped_outage", 0)
            + counters.get("dropped_sensor_down", 0)
            + counters.get("dead_lettered", 0)
            + counters.get("deduplicated", 0)
            + counters.get("quarantined", 0)
            + counters.get("shed", 0)
        )


class TestFloodOffShedPath:
    """Flood-off runs execute zero overload instrumentation."""

    @pytest.mark.parametrize("profile", ("none", "paper"))
    def test_no_overload_metrics_without_flood(self, profile):
        from repro import telemetry

        config = short_fault_config(profile).replace(
            start=date(2023, 9, 15), end=date(2023, 9, 21)
        )
        with telemetry.collecting() as registry:
            result = run_simulation(config)
        assert result.collector.admission is None  # no gate, no coins
        counters = registry.export()["counters"]
        overload = [k for k in counters if k.startswith("overload.")]
        assert overload == []
        assert result.collector.admitted == 0
        assert result.collector.shed == 0
        assert result.collector.deferred == 0

    def test_flood_on_does_emit_overload_metrics(self):
        from repro import telemetry

        base = short_fault_config("stress").replace(
            start=date(2023, 9, 15), end=date(2023, 9, 21)
        )
        config = base.replace(
            faults=dataclasses.replace(
                base.faults, flood=FloodFaults.from_name("burst")
            )
        )
        with telemetry.collecting() as registry:
            result = run_simulation(config)
        assert result.collector.admission is not None
        counters = registry.export()["counters"]
        assert counters.get("overload.admitted", 0) > 0


class TestWatchdogPolicy:
    def test_soft_deadline_is_a_fraction_of_hard(self):
        policy = DeadlinePolicy(hard_s=10.0)
        assert policy.soft_s == 5.0

    def test_validation(self):
        with pytest.raises(ValueError, match="hard_s"):
            DeadlinePolicy(hard_s=0.0)
        with pytest.raises(ValueError, match="soft_fraction"):
            DeadlinePolicy(hard_s=1.0, soft_fraction=0.0)
        with pytest.raises(ValueError, match="soft_fraction"):
            DeadlinePolicy(hard_s=1.0, soft_fraction=1.5)

    def test_from_deadline(self):
        assert DeadlinePolicy.from_deadline(None) is None
        policy = DeadlinePolicy.from_deadline(42)
        assert policy.hard_s == 42.0


class TestOverloadProperties:
    """Hypothesis sweeps over flood intensity."""

    @given(
        budget=st.integers(min_value=0, max_value=250),
        shed_probability=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=6, deadline=None)
    def test_conservation_law_under_flood(self, budget, shed_probability):
        config = tiny_flood_config(
            budget=budget, shed_probability=shed_probability
        )
        result = run_simulation(config)
        collector = result.collector
        assert collector.accounting_balanced()
        assert collector.admitted == (
            len(collector.sessions) + collector.deduplicated
        )
        accounting = collector.accounting()
        assert accounting["generated"] == (
            accounting["stored"]
            + accounting["dropped_outage"]
            + accounting["dropped_sensor_down"]
            + accounting["dead_lettered"]
            + accounting["deduplicated"]
            + accounting["quarantined"]
            + accounting["shed"]
        )


class TestVerifyAudit:
    def test_shed_totals_reported_and_balanced(self, tmp_path):
        from repro.integrity.verify import audit_tree

        config = tiny_flood_config()
        run_simulation(
            config,
            checkpoint_path=tmp_path / "flood.ckpt",
            checkpoint_every_days=2,
        )
        audit = audit_tree(tmp_path)
        assert audit.ok
        assert audit.records_shed > 0
        assert "shed by admission control" in audit.render()
        assert json.loads(audit.to_json())["records_shed"] == audit.records_shed

    def test_unbalanced_counters_fail_the_audit(self, tmp_path):
        from repro.integrity.verify import audit_tree

        config = tiny_flood_config()
        result = run_simulation(config)
        # Cook the books: bytes stay valid, the conservation law breaks.
        result.collector.generated += 7
        save_checkpoint(
            tmp_path / "cooked.ckpt",
            config,
            config.end,
            result.honeynet,
            result.collector,
        )
        audit = audit_tree(tmp_path)
        assert not audit.ok
        (finding,) = audit.unexplained()
        assert "does not balance" in finding.detail

    def test_quiet_run_reports_no_shed(self, tmp_path):
        from repro.integrity.verify import audit_tree

        config = short_fault_config("paper")
        run_simulation(
            config,
            checkpoint_path=tmp_path / "quiet.ckpt",
            checkpoint_every_days=20,
            stop_after=date(2023, 10, 2),
        )
        audit = audit_tree(tmp_path)
        assert audit.ok
        assert audit.records_shed == 0
        assert "shed by admission control" not in audit.render()


class TestCoverageCeiling:
    def test_overload_note(self):
        assert overload_note(0, 100) is None
        note = overload_note(25, 100)
        assert "25 of 100" in note and "25.00%" in note

    def test_shed_ceiling_enforced(self, tiny_result):
        report = tiny_result.coverage
        fine = {"generated": 100, "shed": 50}
        validate_coverage(report, accounting=fine)
        drowned = {"generated": 100, "shed": 90}
        with pytest.raises(CoverageError, match="admission control shed"):
            validate_coverage(report, accounting=drowned)

    def test_burst_dataset_builds_and_annotates(self):
        from repro.experiments.dataset import build_dataset

        dataset = build_dataset(flood_config("burst"))
        notes = dataset.coverage_notes()
        assert any(note.startswith("overload:") for note in notes)

    def test_storm_dataset_is_rejected(self):
        """~93% shed is a stress artifact, not a dataset."""
        from repro.experiments.dataset import build_dataset

        with pytest.raises(CoverageError, match="admission control shed"):
            build_dataset(flood_config("storm"), use_cache=False)


class TestCliWiring:
    def parse(self, *argv):
        from repro.cli import _config, build_parser

        args = build_parser().parse_args(["stats", *argv])
        return _config(args)

    def test_flood_profile_composes_onto_fault_profile(self):
        config = self.parse(
            "--fault-profile", "stress", "--flood-profile", "storm"
        )
        assert config.faults.name == "stress"
        assert config.faults.flood == FloodFaults.from_name("storm")

    def test_flood_defaults_off(self):
        config = self.parse("--fault-profile", "paper")
        assert config.faults.flood.inert
