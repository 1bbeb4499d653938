"""Configuration validation and the dataset builder."""

from __future__ import annotations

from datetime import date

import pytest

from repro.config import DEFAULT_CONFIG, PAPER, SimulationConfig
from repro.experiments.dataset import build_dataset, clear_cache
from repro.faults.plan import FaultProfile
from repro.honeynet.deployment import N_COUNTRIES, N_HONEYPOTS
from repro.net.population import N_HONEYPOT_ASES


class TestSimulationConfig:
    def test_defaults(self):
        assert (N_HONEYPOTS, N_COUNTRIES, N_HONEYPOT_ASES) == (221, 55, 65)
        assert DEFAULT_CONFIG.start == date(2021, 12, 1)
        assert DEFAULT_CONFIG.end == date(2024, 8, 31)

    def test_scale_validation(self):
        for scale in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                SimulationConfig(scale=scale)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(start=date(2023, 1, 1), end=date(2022, 1, 1))

    def test_scaled(self):
        config = SimulationConfig(scale=1e-3)
        assert config.scaled(1_000_000) == 1000

    def test_replace(self):
        config = DEFAULT_CONFIG.replace(seed=99)
        assert config.seed == 99
        assert config.scale == DEFAULT_CONFIG.scale

    def test_paper_numbers_sane(self):
        assert PAPER.ssh_sessions < PAPER.total_sessions
        assert (
            PAPER.scanning_sessions
            + PAPER.scouting_sessions
            + PAPER.intrusion_sessions
            + PAPER.command_sessions
            <= PAPER.total_sessions
        )
        assert PAPER.non_state_sessions + PAPER.state_sessions == PAPER.command_sessions


class TestDatasetBuilder:
    def test_cache_returns_same_object(self):
        config = SimulationConfig(
            seed=76, scale=1e-4, start=date(2022, 6, 1), end=date(2022, 6, 3)
        )
        assert build_dataset(config) is build_dataset(config)

    def test_cache_bypass(self):
        config = SimulationConfig(
            seed=77, scale=1e-4, start=date(2022, 6, 1), end=date(2022, 6, 5)
        )
        a = build_dataset(config, use_cache=False)
        b = build_dataset(config, use_cache=False)
        assert a is not b
        assert len(a.database) == len(b.database)

    def test_clear_cache(self):
        config = SimulationConfig(
            seed=78, scale=1e-4, start=date(2022, 6, 1), end=date(2022, 6, 3)
        )
        a = build_dataset(config)
        clear_cache()
        b = build_dataset(config)
        assert a is not b

    def test_cache_key_covers_every_dataset_field(self):
        """Regression: every config field shapes the dataset, so a
        cached build of another config must never stand in."""
        base = SimulationConfig(
            seed=7, scale=1e-4, start=date(2023, 1, 1), end=date(2023, 1, 14)
        )
        cached = build_dataset(base)
        for change in (
            {"seed": 8},
            {"scale": 2e-4},
            {"end": date(2023, 1, 13)},
            {"faults": FaultProfile.from_name("stress")},
        ):
            assert build_dataset(base.replace(**change)) is not cached
        other = base.replace(seed=8)
        fresh = build_dataset(other, use_cache=False)
        assert build_dataset(other).database.digest() == (
            fresh.database.digest()
        )
        assert fresh.database.digest() != cached.database.digest()

    def test_clustering_cached(self, dataset):
        assert dataset.clustering() is dataset.clustering()

    def test_dataset_accessors(self, dataset):
        assert dataset.config is DEFAULT_CONFIG
        assert dataset.database is dataset.simulation.database
        assert dataset.whois is dataset.simulation.whois
