"""In-memory session database with the query surface the analyses need.

The honeynet's real deployment stores sessions in a central database
queried in situ; this class is that interface.  Indexes are built
lazily and cached — the database is append-closed once constructed.
"""

from __future__ import annotations

from repro.honeypot.session import Protocol, SessionRecord


def database_order(session: SessionRecord) -> tuple[float, str]:
    """The sort key of database order: start time, then session id."""
    return session.start, session.session_id


class SessionDatabase:
    """Query layer over a fixed collection of session records."""

    def __init__(self, sessions: list[SessionRecord]) -> None:
        self._sessions = sorted(sessions, key=database_order)
        self._ssh: list[SessionRecord] | None = None
        self._commands: list[SessionRecord] | None = None

    def __len__(self) -> int:
        return len(self._sessions)

    def __iter__(self):
        return iter(self._sessions)

    @property
    def sessions(self) -> list[SessionRecord]:
        """All sessions, ordered by start time."""
        return self._sessions

    def ssh_sessions(self) -> list[SessionRecord]:
        """Only SSH sessions (the paper's analysis scope)."""
        if self._ssh is None:
            self._ssh = [
                s for s in self._sessions if s.protocol == Protocol.SSH
            ]
        return self._ssh

    def command_sessions(self) -> list[SessionRecord]:
        """SSH sessions with a successful login and ≥1 command."""
        if self._commands is None:
            self._commands = [
                s
                for s in self.ssh_sessions()
                if s.login_succeeded and s.executed_commands
            ]
        return self._commands

    def unique_client_ips(self) -> set[str]:
        """Distinct client IPs across SSH sessions."""
        return {s.client_ip for s in self.ssh_sessions()}

    def digest(self) -> str:
        """The dataset digest: SHA-256 over every stored session's
        canonical bytes, both protocols, in database order.

        Two runs produced the same dataset iff their digests match —
        the equivalence check behind the fault-model and
        checkpoint/resume guarantees.
        """
        from repro.honeynet.io import dataset_digest, record_bytes

        return dataset_digest(map(record_bytes, self._sessions))

    def unique_hashes(self) -> set[str]:
        """All distinct file hashes ever recorded (downloads/writes)."""
        hashes: set[str] = set()
        for session in self.command_sessions():
            hashes.update(session.download_hashes())
        return hashes
