"""Login/password analyses (Figures 10 and 11)."""

from __future__ import annotations

from datetime import date

from repro.analysis.logins import (
    FIGURE10_PASSWORDS,
    default_account_stats,
    monthly_password_counts,
    rows_with_password,
    top_passwords,
)
from repro.analysis.table import build_session_table
from repro.honeynet.database import SessionDatabase
from repro.honeypot.session import (
    CommandRecord,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.util.timeutils import to_epoch


def session(
    attempts,
    when=date(2023, 1, 10),
    commands=(),
    client_ip="1.1.1.1",
) -> SessionRecord:
    return SessionRecord(
        session_id=f"s-{client_ip}-{when}-{len(attempts)}-{len(commands)}",
        honeypot_id="hp",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip=client_ip,
        client_port=1,
        start=to_epoch(when),
        end=to_epoch(when) + 1,
        logins=list(attempts),
        commands=[CommandRecord(raw=c, known=True) for c in commands],
    )


def ssh_rows(records):
    """The session table's SSH rows over ``records``."""
    return build_session_table(SessionDatabase(records)).ssh


class TestPasswordCounts:
    def test_successful_password_extracted(self):
        record = session(
            [LoginAttempt("root", "bad", False), LoginAttempt("root", "good", True)]
        )
        assert ssh_rows([record]).login[0].password == "good"

    def test_failed_session_none(self):
        record = session([LoginAttempt("root", "root", False)])
        assert ssh_rows([record]).login == [None]

    def test_monthly_counts(self):
        rows = ssh_rows(
            [
                session([LoginAttempt("root", "1234", True)], date(2023, 1, 5)),
                session([LoginAttempt("root", "1234", True)], date(2023, 1, 6)),
                session([LoginAttempt("root", "admin", True)], date(2023, 2, 5)),
                session([LoginAttempt("root", "1234", False)], date(2023, 2, 6)),
            ]
        )
        counts = monthly_password_counts(rows.month, rows.login)
        assert counts["2023-01"]["1234"] == 2
        assert counts["2023-02"] == {"admin": 1}

    def test_top_passwords(self):
        rows = ssh_rows(
            [
                session([LoginAttempt("root", "a", True)]),
                session([LoginAttempt("root", "a", True)], date(2023, 1, 11)),
                session([LoginAttempt("root", "b", True)], date(2023, 1, 12)),
            ]
        )
        assert top_passwords(rows.login, 1) == [("a", 2)]

    def test_sessions_with_password(self):
        match = session([LoginAttempt("root", "3245gs5662d34", True)])
        other = session([LoginAttempt("root", "x", True)], date(2023, 1, 11))
        rows = ssh_rows([match, other])
        assert [
            rows.sessions[row]
            for row in rows_with_password(rows.login, "3245gs5662d34")
        ] == [match]

    def test_figure10_password_list(self):
        assert "3245gs5662d34" in FIGURE10_PASSWORDS
        assert "dreambox" in FIGURE10_PASSWORDS


class TestDefaultAccountStats:
    def test_stats(self, dataset):
        ssh = dataset.table.ssh
        phil = default_account_stats(ssh, "phil", dataset.whois)
        assert phil.sessions > 0
        assert phil.successes == phil.sessions  # phil always accepted
        assert phil.silent_fraction > 0.7
        assert phil.unique_ips > 5
        assert phil.unique_ases > 3

    def test_richard_never_succeeds(self, dataset):
        ssh = dataset.table.ssh
        richard = default_account_stats(ssh, "richard", dataset.whois)
        assert richard.sessions > 0
        assert richard.successes == 0
        assert richard.silent_fraction == 0.0

    def test_unknown_username_empty(self, dataset):
        stats = default_account_stats(
            dataset.table.ssh, "nosuchuser", dataset.whois
        )
        assert stats.sessions == 0
