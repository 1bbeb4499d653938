"""Fleet deployment, collector, session database."""

from __future__ import annotations

from datetime import date

import pytest

from repro.faults.plan import PAPER_OUTAGE_START
from repro.honeynet.collector import Collector, OutageWindow
from repro.honeynet.database import SessionDatabase
from repro.honeynet.deployment import deploy_honeynet
from repro.honeypot.session import (
    CommandRecord,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.net.population import build_base_population
from repro.util.rng import RngTree
from repro.util.timeutils import to_epoch


def make_session(
    start: float,
    client_ip: str = "1.1.1.1",
    protocol: Protocol = Protocol.SSH,
    login: bool = True,
    commands: tuple[str, ...] = (),
    session_id: str | None = None,
) -> SessionRecord:
    return SessionRecord(
        session_id=session_id or f"s-{start}-{client_ip}-{len(commands)}",
        honeypot_id="hp-000",
        honeypot_ip="192.0.2.1",
        honeypot_port=22 if protocol == Protocol.SSH else 23,
        protocol=protocol,
        client_ip=client_ip,
        client_port=40000,
        start=start,
        end=start + 5,
        logins=[LoginAttempt("root", "admin", login)] if login else [],
        commands=[CommandRecord(raw=c, known=True) for c in commands],
    )


class TestDeployment:
    def test_fleet_shape(self):
        tree = RngTree(7)
        population = build_base_population(tree.child("net"))
        net = deploy_honeynet(population, tree.child("deploy"))
        assert len(net) == 221
        assert len({hp.honeypot_id for hp in net.honeypots}) == 221
        assert len({hp.ip for hp in net.honeypots}) >= 200
        assert len(set(net.countries)) == 55
        assert len({hp.asn for hp in net.honeypots}) == 65

    def test_by_id(self):
        tree = RngTree(7)
        population = build_base_population(tree.child("net"))
        net = deploy_honeynet(population, tree.child("deploy"))
        assert net.by_id("hp-000").honeypot_id == "hp-000"
        with pytest.raises(KeyError):
            net.by_id("hp-999")

    def test_deterministic_under_seed(self):
        def build():
            tree = RngTree(7)
            population = build_base_population(tree.child("net"))
            return deploy_honeynet(population, tree.child("deploy"))

        assert [hp.ip for hp in build().honeypots] == [
            hp.ip for hp in build().honeypots
        ]


class TestCollector:
    def test_ingest(self):
        collector = Collector()
        assert collector.ingest(make_session(to_epoch(date(2022, 5, 1))))
        assert len(collector.sessions) == 1

    def test_outage_drops(self):
        collector = Collector()
        assert not collector.ingest(make_session(to_epoch(PAPER_OUTAGE_START, 3600)))
        assert collector.dropped == 1
        assert collector.sessions == []

    def test_custom_outages(self):
        collector = Collector(
            outages=(OutageWindow(date(2022, 1, 1), date(2022, 1, 2)),)
        )
        assert not collector.ingest(make_session(to_epoch(date(2022, 1, 2))))
        assert collector.ingest(make_session(to_epoch(date(2022, 1, 3))))

    def test_duplicate_session_ids_deduplicated(self):
        collector = Collector()
        record = make_session(to_epoch(date(2022, 5, 1)), session_id="dup")
        assert collector.ingest(record)
        assert not collector.ingest(record)
        assert collector.deduplicated == 1
        assert len(collector.sessions) == 1
        assert collector.accounting_balanced()


class TestSessionDatabase:
    def make_db(self):
        sessions = [
            make_session(to_epoch(date(2022, 1, 10)), commands=("uname -a",)),
            make_session(to_epoch(date(2022, 1, 20)), login=False),
            make_session(to_epoch(date(2022, 2, 5)), client_ip="2.2.2.2"),
            make_session(
                to_epoch(date(2022, 2, 6)), protocol=Protocol.TELNET
            ),
        ]
        return SessionDatabase(sessions)

    def test_sorted_by_start(self):
        db = self.make_db()
        starts = [s.start for s in db.sessions]
        assert starts == sorted(starts)

    def test_ssh_filter(self):
        db = self.make_db()
        assert len(db.ssh_sessions()) == 3
        assert len(db) == 4

    def test_command_sessions(self):
        db = self.make_db()
        assert len(db.command_sessions()) == 1

    def test_unique_client_ips(self):
        db = self.make_db()
        assert db.unique_client_ips() == {"1.1.1.1", "2.2.2.2"}

    def test_empty_database(self):
        db = SessionDatabase([])
        assert db.unique_hashes() == set()
