"""Fault-injection substrate: plan, transport, checkpoint, coverage.

The two load-bearing guarantees:

* ``FaultProfile.paper()`` (the default) reproduces the pre-fault-model
  pipeline **byte for byte** — the golden digest below was captured from
  the seed pipeline before ``repro.faults`` existed.
* Under ``FaultProfile.stress()`` the collector's conservation law
  holds, coverage reporting reflects every injected gap, and the
  paper's headline distributional findings survive.
"""

from __future__ import annotations

from datetime import date

import pytest

from repro.analysis.categories import SessionCategory, category_counts
from repro.analysis.monthly import monthly_groups, overall_shares
from repro.analysis.statechange import StateClass
from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.experiments.dataset import build_dataset
from repro.faults.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.faults.coverage import (
    CoverageError,
    build_coverage_report,
    validate_coverage,
)
from repro.faults.plan import (
    FaultProfile,
    OutageWindow,
    TransportFaults,
    compile_fault_plan,
)
from repro.faults.transport import (
    BACKOFF_JITTER,
    DirectChannel,
    ResilientChannel,
    build_channel,
)
from repro.honeynet.collector import Collector
from repro.util.rng import RngTree
from repro.util.timeutils import to_epoch
from tests.conftest import GOLDEN_DEFAULT_DIGEST, SHORT_WINDOW, make_record


class TestFaultProfile:
    def test_named_profiles(self):
        assert FaultProfile.from_name("paper") == FaultProfile.paper()
        assert FaultProfile.from_name("none").outages == ()
        assert FaultProfile.from_name("stress").has_churn

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultProfile.from_name("chaos-monkey")

    def test_paper_profile_is_default_and_lossless(self):
        config = SimulationConfig()
        assert config.faults == FaultProfile.paper()
        assert config.faults.transport.lossless
        assert not config.faults.has_churn

    def test_transport_validation(self):
        with pytest.raises(ValueError, match="failure_probability"):
            TransportFaults(failure_probability=1.5)
        with pytest.raises(ValueError, match="max_attempts"):
            TransportFaults(max_attempts=0)
        with pytest.raises(ValueError, match="combined"):
            TransportFaults(
                failure_probability=0.6, corruption_probability=0.5
            )

    def test_outage_window_validation(self):
        with pytest.raises(ValueError, match="outage start"):
            OutageWindow(date(2023, 2, 2), date(2023, 2, 1))


class TestFaultPlan:
    def test_deterministic_compilation(self):
        profile = FaultProfile.stress()
        ids = [f"hp-{i:03d}" for i in range(30)]
        tree = RngTree(7).child("faults")
        a = compile_fault_plan(profile, ids, date(2022, 1, 1), date(2022, 12, 31), tree)
        b = compile_fault_plan(profile, ids, date(2022, 1, 1), date(2022, 12, 31), tree)
        assert a.sensor_down_days == b.sensor_down_days
        assert a.downtimes == b.downtimes

    def test_no_churn_without_crash_rate(self):
        plan = compile_fault_plan(
            FaultProfile.paper(),
            ["hp-000"],
            date(2022, 1, 1),
            date(2022, 12, 31),
            RngTree(7),
        )
        assert plan.sensor_down_days == frozenset()
        assert plan.outage_days == 0  # Oct 2023 outage outside this window

    def test_downtimes_stay_inside_window(self):
        start, end = date(2022, 1, 1), date(2022, 6, 30)
        plan = compile_fault_plan(
            FaultProfile.stress(),
            [f"hp-{i:03d}" for i in range(50)],
            start,
            end,
            RngTree(3),
        )
        assert plan.downtimes  # 50 sensors × ~1/year ⇒ ≫0 in expectation
        for downtime in plan.downtimes:
            assert start <= downtime.start <= downtime.end <= end


class TestCollectorAccounting:
    def test_dedup_by_session_id(self):
        collector = Collector()
        record = make_record(to_epoch(date(2022, 5, 1)))
        assert collector.ingest(record)
        assert not collector.ingest(record)
        assert collector.deduplicated == 1
        assert len(collector.sessions) == 1
        assert collector.accounting_balanced()

    def test_sensor_down_drop(self):
        day = date(2022, 5, 1)
        collector = Collector(
            sensor_down_days=frozenset({("hp-000", day.toordinal())})
        )
        assert not collector.ingest(make_record(to_epoch(day)))
        assert collector.dropped_sensor_down == 1
        assert collector.dropped == 1
        other = make_record(to_epoch(day), session_id="s-2", honeypot_id="hp-001")
        assert collector.ingest(other)
        assert collector.accounting_balanced()

    def test_outage_precomputed_as_ordinals(self):
        collector = Collector(
            outages=(OutageWindow(date(2022, 1, 1), date(2022, 1, 2)),)
        )
        assert collector._outage_ordinals == (
            (date(2022, 1, 1).toordinal(), date(2022, 1, 2).toordinal()),
        )
        assert not collector.ingest(make_record(to_epoch(date(2022, 1, 2))))
        assert collector.dropped_outage == 1


class TestTransport:
    def fresh(self, **faults):
        collector = Collector(outages=())
        channel = build_channel(
            collector, TransportFaults(**faults), RngTree(5).child("t")
        )
        return collector, channel

    def test_lossless_uses_direct_channel(self):
        collector, channel = self.fresh()
        assert isinstance(channel, DirectChannel)
        assert channel.deliver(make_record(to_epoch(date(2022, 5, 1))))
        assert collector.accounting_balanced()

    def test_faulty_uses_resilient_channel(self):
        _, channel = self.fresh(failure_probability=0.1, max_attempts=3)
        assert isinstance(channel, ResilientChannel)

    def test_dead_letter_after_exhausted_attempts(self):
        collector, channel = self.fresh(
            failure_probability=0.95, max_attempts=2
        )
        for index in range(200):
            channel.deliver(
                make_record(
                    to_epoch(date(2022, 5, 1), index), session_id=f"s-{index}"
                )
            )
        assert collector.dead_lettered > 0
        assert collector.dead_letters
        assert collector.retried > 0
        assert collector.accounting_balanced()

    def test_duplicates_are_deduplicated(self):
        collector, channel = self.fresh(duplicate_probability=0.5)
        for index in range(200):
            channel.deliver(
                make_record(
                    to_epoch(date(2022, 5, 1), index), session_id=f"s-{index}"
                )
            )
        assert collector.deduplicated > 0
        assert len(collector.sessions) == 200
        assert collector.accounting_balanced()

    def test_delivery_deterministic_per_record(self):
        outcomes = []
        for _ in range(2):
            collector, channel = self.fresh(
                failure_probability=0.5, max_attempts=2
            )
            for index in range(100):
                channel.deliver(
                    make_record(
                        to_epoch(date(2022, 5, 1), index),
                        session_id=f"s-{index}",
                    )
                )
            outcomes.append(collector.accounting())
        assert outcomes[0] == outcomes[1]

    def test_backoff_grows_and_caps(self):
        _, channel = self.fresh(
            failure_probability=0.5,
            max_attempts=8,
            backoff_base_s=1.0,
            backoff_cap_s=4.0,
        )
        rng = RngTree(1).rand()
        for attempt, raw in zip(range(1, 7), (1.0, 2.0, 4.0, 4.0, 4.0, 4.0)):
            delay = channel.backoff_s(attempt, rng)
            assert (1.0 - BACKOFF_JITTER) * raw <= delay <= raw


class TestPaperEquivalence:
    def test_default_dataset_matches_pre_fault_digest(self, dataset):
        """The tentpole guarantee: faults off ⇒ bit-identical dataset."""
        assert dataset.config.faults == FaultProfile.paper()
        assert dataset.database.digest() == GOLDEN_DEFAULT_DIGEST

    def test_paper_accounting_matches_legacy_counters(self, dataset):
        collector = dataset.simulation.collector
        accounting = collector.accounting()
        assert accounting["dropped_sensor_down"] == 0
        assert accounting["retried"] == 0
        assert accounting["deduplicated"] == 0
        assert accounting["dead_lettered"] == 0
        assert collector.generated == len(collector.sessions) + collector.dropped
        assert collector.accounting_balanced()

    def test_paper_coverage_flags_only_october_2023(self, dataset):
        coverage = dataset.coverage
        assert coverage.gap_months() == ["2023-10"]
        assert coverage.months["2023-10"].fraction == pytest.approx(
            29 / 31, rel=1e-9
        )
        assert dataset.coverage_notes() == [
            "coverage gaps: 2023-10 (93.5% sensor-days)"
        ]


#: Dataset digests (stored, dropped) beyond the golden config.  They
#: guard the hot-path caches that must stay digest-neutral: the shell
#: parse memo, the storage-host calendar and the weighted-draw tables.
SHORT_WINDOW_DIGESTS = {
    "none": (
        "43bc123ade1418f86eb1709a5b73f7f01bf289cb2ea98b61abf57bc8bf3a980a",
        2403,
        0,
    ),
    "stress": (
        "e95e5f4b8089a068f5ba039393b1026fc4ce8628ea25805aa97af009b8e87239",
        2263,
        140,
    ),
}
#: Scale 1e-4 over the benchmark harness's smoke window, seed 7.
SMOKE_WINDOW_DIGEST = (
    "7e97a5bb48b4e99d341160f0b60cfaba019ded38180d2f23b3459523932dcc57",
    880,
    0,
)


def digest_and_counts(result) -> tuple[str, int, int]:
    collector = result.collector
    return result.database.digest(), len(collector.sessions), collector.dropped


class TestDigestPins:
    """Pins beyond the golden config, for other fault profiles, a denser
    scale and another season."""

    @pytest.mark.parametrize("profile", sorted(SHORT_WINDOW_DIGESTS))
    def test_short_window_profile(self, serial_baselines, profile):
        assert digest_and_counts(serial_baselines[profile]) == (
            SHORT_WINDOW_DIGESTS[profile]
        )

    def test_dense_smoke_window(self):
        config = SimulationConfig(
            seed=7, scale=1e-4, start=date(2023, 1, 1), end=date(2023, 1, 14)
        )
        assert digest_and_counts(run_simulation(config)) == SMOKE_WINDOW_DIGEST


class TestCheckpointResume:
    def config(self, faults=None):
        return SimulationConfig(
            seed=33,
            scale=1e-4,
            faults=faults or FaultProfile.paper(),
            **SHORT_WINDOW,
        )

    @pytest.mark.parametrize("profile", ["paper", "stress"])
    def test_kill_and_resume_is_digest_identical(self, tmp_path, profile):
        config = self.config(FaultProfile.from_name(profile))
        checkpoint = tmp_path / "run.ckpt"
        uninterrupted = run_simulation(config)
        partial = run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=date(2023, 10, 2),
        )
        assert len(partial.database) < len(uninterrupted.database)
        resumed = run_simulation(config, checkpoint_path=checkpoint, resume=True)
        assert resumed.database.digest() == uninterrupted.database.digest()
        assert (
            resumed.collector.accounting()
            == uninterrupted.collector.accounting()
        )

    def test_resume_without_file_starts_fresh(self, tmp_path):
        config = self.config()
        result = run_simulation(
            config, checkpoint_path=tmp_path / "missing.ckpt", resume=True
        )
        assert result.database.digest() == run_simulation(config).database.digest()

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            run_simulation(self.config(), resume=True)

    def test_config_mismatch_rejected(self, tmp_path):
        config = self.config()
        checkpoint = tmp_path / "run.ckpt"
        run_simulation(
            config,
            checkpoint_path=checkpoint,
            checkpoint_every_days=7,
            stop_after=date(2023, 9, 25),
        )
        other = config.replace(seed=34)
        with pytest.raises(CheckpointError, match="different configuration"):
            load_checkpoint(checkpoint, other)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path, self.config())

    def test_save_is_atomic_overwrite(self, tmp_path):
        config = self.config()
        result = run_simulation(config)
        path = tmp_path / "state.ckpt"
        save_checkpoint(
            path, config, config.end, result.honeynet, result.collector
        )
        loaded = load_checkpoint(path, config)
        assert len(loaded.sessions) == len(result.collector.sessions)
        assert not path.with_name(path.name + ".tmp").exists()


@pytest.fixture(scope="module")
def stress_dataset():
    """Full default window under the stress profile."""
    return build_dataset(DEFAULT_CONFIG.replace(faults=FaultProfile.stress()))


class TestStressRobustness:
    """ISSUE acceptance: findings survive a deliberately broken instrument."""

    def test_accounting_invariant(self, stress_dataset):
        collector = stress_dataset.simulation.collector
        assert collector.accounting_balanced()
        accounting = collector.accounting()
        assert accounting["dropped_sensor_down"] > 0
        assert accounting["deduplicated"] > 0
        assert accounting["retried"] > 0

    def test_coverage_reflects_injected_gaps(self, stress_dataset):
        coverage = stress_dataset.coverage
        assert coverage.overall_fraction < 0.995
        gaps = coverage.gap_months(0.97)
        assert "2023-10" in gaps  # paper outage
        assert "2022-06" in gaps  # stress profile's extra outage
        plan = stress_dataset.simulation.plan
        crashed = {downtime.honeypot_id for downtime in plan.downtimes}
        assert any(
            coverage.sensors[honeypot_id] < 1.0 for honeypot_id in crashed
        )

    def test_stress_determinism(self):
        config = SimulationConfig(
            seed=9, scale=1e-4, faults=FaultProfile.stress(), **SHORT_WINDOW
        )
        assert (
            run_simulation(config).database.digest()
            == run_simulation(config).database.digest()
        )

    def test_category_ordering_survives(self, stress_dataset):
        ssh = stress_dataset.table.ssh
        counts = category_counts(ssh.sessions, ssh.login)
        assert counts[SessionCategory.SCOUTING] == max(counts.values())
        assert (
            counts[SessionCategory.COMMAND_EXECUTION]
            > counts[SessionCategory.SCANNING]
        )

    def test_echo_ok_dominance_survives(self, stress_dataset):
        commands = stress_dataset.table.commands
        shares = overall_shares(
            monthly_groups(
                (month, label)
                for month, label, state in zip(
                    commands.month, commands.label, commands.state
                )
                if state is StateClass.NON_STATE
            )
        )
        assert shares.get("echo_ok", 0.0) > 0.7


class TestCoverageValidation:
    def test_catastrophic_profile_fails_loudly(self):
        profile = FaultProfile(
            name="dark",
            outages=(OutageWindow(date(2023, 9, 1), date(2023, 10, 31)),),
        )
        plan = compile_fault_plan(
            profile, ["hp-000"], date(2023, 9, 1), date(2023, 10, 31), RngTree(1)
        )
        report = build_coverage_report(plan)
        assert report.overall_fraction == 0.0
        with pytest.raises(CoverageError, match="too degraded"):
            validate_coverage(report)

    def test_dark_month_fails_month_floor(self):
        profile = FaultProfile(
            name="halfdark",
            outages=(OutageWindow(date(2023, 9, 1), date(2023, 9, 30)),),
        )
        plan = compile_fault_plan(
            profile, ["hp-000"], date(2023, 8, 1), date(2023, 10, 31), RngTree(1)
        )
        report = build_coverage_report(plan)
        with pytest.raises(CoverageError, match="2023-09"):
            validate_coverage(report)

    def test_paper_profile_passes(self, dataset):
        validate_coverage(dataset.coverage)

    def test_empty_fault_plan_is_full_coverage(self):
        plan = compile_fault_plan(
            FaultProfile.none(),
            ["hp-000", "hp-001"],
            date(2023, 9, 1),
            date(2023, 10, 31),
            RngTree(1),
        )
        report = build_coverage_report(plan)
        assert report.overall_fraction == 1.0
        assert report.gap_months() == []
        assert all(fraction == 1.0 for fraction in report.sensors.values())
        assert report.notes() == []
        validate_coverage(report)  # must not raise

    def test_full_range_outage_is_zero_coverage(self):
        start, end = date(2023, 9, 1), date(2023, 10, 31)
        profile = FaultProfile(
            name="allout", outages=(OutageWindow(start, end),)
        )
        plan = compile_fault_plan(profile, ["hp-000"], start, end, RngTree(1))
        report = build_coverage_report(plan)
        assert report.overall_fraction == 0.0
        assert set(report.gap_months()) == {"2023-09", "2023-10"}
        assert all(fraction == 0.0 for fraction in report.sensors.values())
        with pytest.raises(CoverageError, match="too degraded"):
            validate_coverage(report)

    def test_gaps_exactly_tiling_the_range(self):
        # Two abutting outages that jointly tile the window exactly must
        # account identically to one full-range outage — the boundary
        # day belongs to exactly one window, never both or neither.
        start, end = date(2023, 9, 1), date(2023, 10, 31)
        tiled = FaultProfile(
            name="tiled",
            outages=(
                OutageWindow(start, date(2023, 9, 30)),
                OutageWindow(date(2023, 10, 1), end),
            ),
        )
        plan = compile_fault_plan(tiled, ["hp-000"], start, end, RngTree(1))
        report = build_coverage_report(plan)
        assert report.overall_fraction == 0.0
        total_outage_days = sum(w.days for w in tiled.outages)
        assert total_outage_days == (end - start).days + 1


class TestExperimentAnnotations:
    def test_fig01_carries_gap_annotation(self, results):
        notes = " ".join(results["fig01"].notes)
        assert "coverage gaps: 2023-10" in notes
