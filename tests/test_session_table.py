"""The session table: each column is its per-session fact, derived once."""

from __future__ import annotations

import re
import sys
from collections import Counter

import pytest

from repro.analysis import storage
from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.monthly import session_day
from repro.analysis.statechange import exec_outcome, loads_payload, state_class
from repro.config import SimulationConfig
from repro.experiments.dataset import Dataset, build_dataset
from repro.util.timeutils import epoch_date, month_key

from tests.conftest import run_all_experiments


def reference_observations(sessions) -> list[storage.DownloadObservation]:
    """Every (command session, IPv4 storage host) pair, written out
    without the table."""
    observations = []
    for session in sessions:
        hosts = []
        for uri in session.uris:
            match = re.match(r"^[a-z+]+://([^/:]+)", uri)
            host = match.group(1) if match else None
            if host and re.match(r"^(?:\d{1,3}\.){3}\d{1,3}$", host):
                if host not in hosts:
                    hosts.append(host)
        hashes = tuple(sorted(set(session.transfer_hashes())))
        observations.extend(
            storage.DownloadObservation(
                session_id=session.session_id,
                day=epoch_date(session.start),
                client_ip=session.client_ip,
                storage_ip=host,
                hashes=hashes,
            )
            for host in hosts
        )
    return observations


@pytest.fixture(params=["dataset", "dataset_5x"])
def any_dataset(request):
    return request.getfixturevalue(request.param)


class TestColumns:
    def test_ssh_rows_are_their_facts(self, any_dataset):
        ssh = any_dataset.table.ssh
        assert ssh.sessions is any_dataset.database.ssh_sessions()
        assert len(ssh.day) == len(ssh.month) == len(ssh.login) == len(ssh)
        for session, day, month, login in zip(
            ssh.sessions, ssh.day, ssh.month, ssh.login
        ):
            assert day == session_day(session) == epoch_date(session.start)
            assert month == month_key(day)
            assert login is session.successful_login

    def test_command_rows_are_their_facts(self, any_dataset):
        commands = any_dataset.table.commands
        assert commands.sessions is any_dataset.database.command_sessions()
        columns = (
            commands.day,
            commands.month,
            commands.label,
            commands.state,
            commands.outcome,
            commands.payload,
        )
        assert all(len(column) == len(commands) for column in columns)
        for session, day, month, label, state, outcome, payload in zip(
            commands.sessions, *columns
        ):
            assert day == epoch_date(session.start)
            assert month == month_key(day)
            assert label == DEFAULT_CLASSIFIER.classify_text(session.command_text)
            assert state == state_class(session)
            assert outcome == exec_outcome(session)
            assert payload == loads_payload(session)

    def test_one_object_per_day_and_month(self, any_dataset):
        table = any_dataset.table
        days = table.ssh.day + table.commands.day
        months = table.ssh.month + table.commands.month
        assert len({id(day) for day in days}) == len(set(days))
        assert len({id(month) for month in months}) == len(set(months))

    def test_download_observations(self, any_dataset):
        observations = any_dataset.download_observations()
        assert observations == reference_observations(
            any_dataset.database.command_sessions()
        )
        assert any_dataset.download_observations() is observations

    def test_file_sessions_are_the_payload_rows(self, any_dataset):
        assert any_dataset.file_sessions() == [
            session
            for session in any_dataset.database.command_sessions()
            if loads_payload(session)
        ]

    def test_sparse_dataset_has_no_payload_rows(self):
        dataset = build_dataset(SimulationConfig(seed=7, scale=1e-7))
        table = dataset.table
        assert len(table.ssh.login) == len(dataset.database.ssh_sessions())
        assert len(table.commands.payload) == len(
            dataset.database.command_sessions()
        )
        assert not any(table.commands.payload)
        assert dataset.file_sessions() == []


def patch_everywhere(monkeypatch, function, replacement) -> None:
    """Rebind ``function`` to ``replacement`` in every ``repro`` module
    that imported it."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, function.__name__, None) is function
        ):
            monkeypatch.setattr(module, function.__name__, replacement)


def per_session(function, calls: Counter):
    """``function``, counting its calls per session id in ``calls``."""

    def counted(session, *args):
        calls[session.session_id] += 1
        return function(session, *args)

    return counted


def test_each_fact_is_derived_once_per_session(dataset, monkeypatch):
    """All experiments on a fresh dataset derive each fact once."""
    fresh = Dataset(
        simulation=dataset.simulation,
        abuse=dataset.abuse,
        killnet_ips=dataset.killnet_ips,
        shadowserver=dataset.shadowserver,
    )
    states: Counter = Counter()
    outcomes: Counter = Counter()
    labels: Counter = Counter()
    observation_builds: Counter = Counter()
    patch_everywhere(
        monkeypatch, state_class, per_session(state_class, states)
    )
    patch_everywhere(
        monkeypatch, exec_outcome, per_session(exec_outcome, outcomes)
    )
    monkeypatch.setattr(
        DEFAULT_CLASSIFIER,
        "classify",
        per_session(DEFAULT_CLASSIFIER.classify, labels),
    )
    observations = storage.download_observations
    patch_everywhere(
        monkeypatch,
        observations,
        lambda *args: observation_builds.update(["build"]) or observations(*args),
    )

    results = run_all_experiments(fresh)

    assert len(results) == 29
    commands = len(dataset.database.command_sessions())
    for calls in (states, outcomes, labels):
        assert calls and max(calls.values()) == 1
        assert sum(calls.values()) <= commands
    assert observation_builds["build"] == 1
