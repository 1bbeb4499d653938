"""End-to-end simulation properties."""

from __future__ import annotations

from datetime import date

from repro.analysis.categories import SessionCategory, category_counts
from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig
from repro.faults.plan import PAPER_OUTAGE_END, PAPER_OUTAGE_START
from repro.honeypot.session import Protocol
from repro.util.timeutils import epoch_date


class TestDeterminism:
    def test_same_seed_same_dataset(self):
        config = SimulationConfig(
            seed=33, scale=1e-4, start=date(2022, 5, 1), end=date(2022, 5, 7)
        )
        a = run_simulation(config)
        b = run_simulation(config)
        ids_a = [s.session_id for s in a.database.sessions]
        ids_b = [s.session_id for s in b.database.sessions]
        assert ids_a == ids_b
        assert [s.command_text for s in a.database.sessions] == [
            s.command_text for s in b.database.sessions
        ]

    def test_different_seed_differs(self):
        base = dict(scale=1e-4, start=date(2022, 5, 1), end=date(2022, 5, 7))
        a = run_simulation(SimulationConfig(seed=1, **base))
        b = run_simulation(SimulationConfig(seed=2, **base))
        assert {s.session_id for s in a.database.sessions} != {
            s.session_id for s in b.database.sessions
        }


class TestStructure:
    def test_all_categories_present(self, tiny_result):
        ssh = tiny_result.database.ssh_sessions()
        counts = category_counts(ssh, [s.successful_login for s in ssh])
        assert set(counts) == set(SessionCategory)

    def test_scouting_dominates(self, tiny_result):
        ssh = tiny_result.database.ssh_sessions()
        counts = category_counts(ssh, [s.successful_login for s in ssh])
        assert counts[SessionCategory.SCOUTING] == max(counts.values())

    def test_telnet_present_by_default(self, tiny_result):
        protocols = {s.protocol for s in tiny_result.database.sessions}
        assert protocols == {Protocol.SSH, Protocol.TELNET}

    def test_sessions_within_window(self, tiny_result):
        config = tiny_result.config
        for record in tiny_result.database.sessions:
            day = epoch_date(record.start)
            assert config.start <= day <= config.end

    def test_honeypots_in_fleet(self, tiny_result):
        fleet_ids = {hp.honeypot_id for hp in tiny_result.honeynet.honeypots}
        assert {s.honeypot_id for s in tiny_result.database.sessions} <= fleet_ids

    def test_ground_truth_labels_set(self, tiny_result):
        assert all(s.bot_label for s in tiny_result.database.sessions)

    def test_session_ids_unique(self, tiny_result):
        ids = [s.session_id for s in tiny_result.database.sessions]
        assert len(ids) == len(set(ids))


class TestOutage:
    def test_outage_days_empty(self, dataset):
        days = set(dataset.table.ssh.day)
        assert PAPER_OUTAGE_START not in days
        assert PAPER_OUTAGE_END not in days
        assert dataset.simulation.collector.dropped > 0

    def test_surrounding_days_active(self, dataset):
        from datetime import timedelta

        days = set(dataset.table.ssh.day)
        assert (PAPER_OUTAGE_START - timedelta(days=1)) in days
        assert (PAPER_OUTAGE_END + timedelta(days=1)) in days


class TestExtraBots:
    def test_extra_bot_injected(self):
        from datetime import date as _date

        from repro.attackers.activity import Campaign
        from repro.attackers.base import Bot
        from repro.attackers.ippool import ClientIPPool
        from repro.attackers.orchestrator import run_simulation
        from repro.config import SimulationConfig

        class PingBot(Bot):
            def __init__(self, population, tree, config):
                pool = ClientIPPool("ping", population, tree, 100, 1.0)
                super().__init__(
                    "pingbot", Campaign(config.start, config.end, 30_000), pool
                )

            def build_intent(self, ctx, day, rng, index):
                return self.make_intent(
                    rng,
                    credentials=(("root", "x"),),
                    command_lines=("echo ping",),
                )

        config = SimulationConfig(
            seed=61, scale=1e-4, start=_date(2022, 7, 1), end=_date(2022, 7, 10)
        )
        result = run_simulation(
            config, extra_bots_factory=lambda p, t, c: [PingBot(p, t, c)]
        )
        labels = {s.bot_label for s in result.database.sessions}
        assert "pingbot" in labels

    def test_name_collision_rejected(self):
        from datetime import date as _date

        import pytest as _pytest

        from repro.attackers.activity import Campaign
        from repro.attackers.base import Bot
        from repro.attackers.ippool import ClientIPPool
        from repro.attackers.orchestrator import run_simulation
        from repro.config import SimulationConfig

        class Impostor(Bot):
            def __init__(self, population, tree, config):
                pool = ClientIPPool("imp", population, tree, 10, 1.0)
                super().__init__(
                    "mdrfckr", Campaign(config.start, config.end, 1), pool
                )

            def build_intent(self, ctx, day, rng, index):
                return self.make_intent(rng, credentials=())

        config = SimulationConfig(
            seed=62, scale=1e-4, start=_date(2022, 7, 1), end=_date(2022, 7, 2)
        )
        with _pytest.raises(ValueError, match=r"collide.*\bmdrfckr\b"):
            run_simulation(
                config, extra_bots_factory=lambda p, t, c: [Impostor(p, t, c)]
            )


class TestLogging:
    def test_simulation_logs_progress(self, caplog):
        import logging
        from datetime import date as _date

        from repro.attackers.orchestrator import run_simulation
        from repro.config import SimulationConfig

        config = SimulationConfig(
            seed=63, scale=1e-4, start=_date(2022, 7, 1), end=_date(2022, 7, 3)
        )
        with caplog.at_level(logging.INFO, logger="repro.simulation"):
            run_simulation(config)
        messages = " ".join(record.message for record in caplog.records)
        assert "simulating" in messages
        assert "simulation finished" in messages
