"""Known/unknown command statistics."""

from __future__ import annotations

from repro.analysis.commands_stats import (
    command_visibility,
    first_command_word,
)
from repro.honeypot.session import (
    CommandRecord,
    LoginAttempt,
    Protocol,
    SessionRecord,
)


def session(commands: list[tuple[str, bool]]) -> SessionRecord:
    return SessionRecord(
        session_id=f"s-{hash(tuple(commands)) & 0xFFFF}",
        honeypot_id="hp",
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=1,
        start=0.0,
        end=1.0,
        logins=[LoginAttempt("root", "x", True)],
        commands=[CommandRecord(raw=raw, known=known) for raw, known in commands],
    )


class TestFirstWord:
    def test_simple(self):
        assert first_command_word("scp a b") == "scp"

    def test_path(self):
        assert first_command_word("./payload -x") == "./payload"

    def test_leading_space(self):
        assert first_command_word("  rsync -a") == "rsync"

    def test_garbage(self):
        assert first_command_word("!!!") == ""


class TestVisibility:
    def test_counts(self):
        sessions = [
            session([("uname -a", True), ("scp a b", False)]),
            session([("rsync -a x y", False)]),
        ]
        visibility = command_visibility(sessions)
        assert visibility.known_lines == 1
        assert visibility.unknown_lines == 2
        assert visibility.unknown_fraction == 2 / 3
        top = dict(visibility.top_unknown_commands)
        assert top == {"scp": 1, "rsync": 1}

    def test_empty(self):
        visibility = command_visibility([])
        assert visibility.total_lines == 0
        assert visibility.unknown_fraction == 0.0

    def test_dataset_visibility(self, dataset):
        visibility = command_visibility(dataset.database.command_sessions())
        assert visibility.total_lines > 0
        # the emulation covers the overwhelming majority of attacker input
        assert visibility.unknown_fraction < 0.15
        unknown_names = {name for name, _ in visibility.top_unknown_commands}
        assert "lockr" in unknown_names or "dget" in unknown_names
