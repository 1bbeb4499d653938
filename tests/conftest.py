"""Shared fixtures: one simulated dataset per test session.

The default-scale dataset takes a few seconds to build, so it is built
once and shared; tests must treat it as read-only.  The same goes for
the per-fault-profile serial baselines (``serial_baselines``) the
differential suites compare against.
"""

from __future__ import annotations

import asyncio
import inspect
from dataclasses import asdict
from datetime import date

import pytest

from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.experiments.dataset import Dataset, build_dataset
from repro.experiments.runner import load_all_experiments
from repro.faults.plan import FaultProfile

#: SHA-256 of the default-config dataset produced by the pipeline
#: *before* the fault subsystem existed (13429 sessions, 29 dropped).
#: The default paper profile must keep reproducing exactly this.
GOLDEN_DEFAULT_DIGEST = (
    "9fa2ad596597cbad5973236559d44b6cd438500551e43cdc9d89373df31f9ae8"
)

#: A five-week window straddling the paper's October 2023 outage —
#: short enough for per-test runs, long enough to exercise the outage.
SHORT_WINDOW = dict(start=date(2023, 9, 15), end=date(2023, 10, 20))

#: Every named fault profile (the differential suites sweep all three).
PROFILES = ("none", "paper", "stress")


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    """Event-loop policy for async tests: one fresh loop per test.

    The service suite's coroutine tests run here, on a loop created for
    the test and closed (and deregistered) immediately after — no loop
    ever leaks into the synchronous tier-1 tests, and the suite does not
    depend on pytest-asyncio being importable (it is pinned in the dev
    extras for environments that have it, but this hook takes
    precedence either way).
    """
    function = pyfuncitem.obj
    if not inspect.iscoroutinefunction(function):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(function(**kwargs))
    finally:
        loop.close()
        asyncio.set_event_loop(None)
    return True


def make_record(
    start: float,
    session_id: str = "s-1",
    honeypot_id: str = "hp-000",
):
    """A minimal valid session record for collector/transport tests."""
    from repro.honeypot.session import Protocol, SessionRecord

    return SessionRecord(
        session_id=session_id,
        honeypot_id=honeypot_id,
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=40000,
        start=start,
        end=start + 5,
    )


def assert_equivalent(result, reference) -> None:
    """The full equivalence contract between two simulation results."""
    assert result.database.digest() == reference.database.digest()
    assert result.collector.accounting() == reference.collector.accounting()
    assert result.collector.dead_letters == reference.collector.dead_letters
    assert result.collector.accounting_balanced()
    assert {
        hp.honeypot_id: hp._counter for hp in result.honeynet.honeypots
    } == {hp.honeypot_id: hp._counter for hp in reference.honeynet.honeypots}
    result_stats = asdict(result.channel.stats)
    reference_stats = asdict(reference.channel.stats)
    # Integer transport counters must match exactly; the simulated
    # backoff is a float sum, equal only up to summation order.
    backoff = "simulated_backoff_s"
    assert result_stats[backoff] == pytest.approx(reference_stats[backoff])
    del result_stats[backoff], reference_stats[backoff]
    assert result_stats == reference_stats


def short_fault_config(profile: str) -> SimulationConfig:
    """The SHORT_WINDOW config the differential suites run under."""
    return SimulationConfig(
        seed=33,
        scale=1e-4,
        faults=FaultProfile.from_name(profile),
        **SHORT_WINDOW,
    )


@pytest.fixture(scope="session")
def serial_baselines():
    """One serial reference run per fault profile (shared, read-only)."""
    return {
        profile: run_simulation(short_fault_config(profile))
        for profile in PROFILES
    }


@pytest.fixture(scope="session")
def tiny_result():
    """A three-week moderate-density run (shared, read-only)."""
    config = SimulationConfig(
        seed=21, scale=2e-4, start=date(2022, 3, 1), end=date(2022, 3, 21)
    )
    return run_simulation(config)


@pytest.fixture(scope="session")
def dataset() -> Dataset:
    """The full-window default-scale dataset (shared, read-only)."""
    return build_dataset(DEFAULT_CONFIG)


def run_all_experiments(dataset: Dataset) -> dict:
    """Every registered experiment's result over ``dataset``."""
    from repro.experiments.base import REGISTRY, get_experiment

    load_all_experiments()
    return {eid: get_experiment(eid).run(dataset) for eid in REGISTRY}


@pytest.fixture(scope="session")
def results(dataset):
    """All experiment results over the shared dataset."""
    return run_all_experiments(dataset)


@pytest.fixture(scope="session")
def dataset_5x() -> Dataset:
    """The full-window dataset at 5x the default density (seed 7, 1e-4).

    Its clustering sample is full (400 sessions) and it classifies five
    times the sessions of ``dataset`` (shared, read-only).
    """
    return build_dataset(SimulationConfig(seed=7, scale=1e-4))


@pytest.fixture(scope="session")
def results_5x(dataset_5x):
    """All experiment results over ``dataset_5x``."""
    return run_all_experiments(dataset_5x)


@pytest.fixture(scope="session")
def short_config() -> SimulationConfig:
    """A three-month window at higher density (fast, denser days)."""
    from datetime import date

    return SimulationConfig(
        seed=11,
        scale=1e-4,
        start=date(2022, 2, 1),
        end=date(2022, 4, 30),
    )


@pytest.fixture(scope="session")
def short_dataset(short_config) -> Dataset:
    return build_dataset(short_config)
