"""The medium-interaction honeypot itself.

One :class:`CowrieHoneypot` models one deployed sensor: it accepts a
:class:`~repro.honeypot.session.ConnectionIntent` (what a client sends)
and produces the :class:`~repro.honeypot.session.SessionRecord` the
collector stores.  Sessions are stateless — every connection gets a
fresh emulated filesystem, exactly like the deployed Cowrie (and exactly
the limitation the paper's "random file consistency check" attackers
probe for).

Bots replay the same scripts for months, so each sensor keeps a memo of
the lines it has emulated.  A line's record depends only on the shell
state it runs in — user, working directory, environment and filesystem
(the hostname is constant per sensor) — plus what the session alone can
see: the files the network serves it and its ``/dev/urandom``.  A
line whose first run changed no shell state, recorded no file event
and read nothing session-bound is stored under (that state, line); a
later run in the same state appends the stored URIs and reuses the
frozen record.  :meth:`ShellEngine.run_line` stays the one definition
of a line; the memo only skips calls whose answer it already has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.honeypot.auth import accepts
from repro.honeypot.session import (
    CommandRecord,
    ConnectionIntent,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.honeypot.shell.context import DEFAULT_HOSTNAME, ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.util.hashing import short_hash

#: Hard cap on shell input lines per session (the real honeypot is
#: bounded by its 3-minute timeout; curl-proxy abuse sessions send ~100).
MAX_LINES_PER_SESSION = 300

#: The honeypot-side idle timeout (paper section 3.1: three minutes).
DEFAULT_SESSION_TIMEOUT_S = 180.0

#: The ports every sensor serves SSH and Telnet on.
SSH_PORT = 22
TELNET_PORT = 23

#: Entries one sensor's line memo holds before it is cleared.  At seed 7
#: the fullest sensor memo holds 64 entries at scale 1e-4 (10,083 over
#: 221 sensors) and 42 at 2e-5, so the bound only caps odd traffic.
LINE_MEMO_LIMIT = 512

#: A memo key: (user, cwd, environment items, filesystem fingerprint),
#: then the line.
_State = tuple[str, str, tuple[tuple[str, str], ...], bytes]


@lru_cache(maxsize=LINE_MEMO_LIMIT)
def _shared(state: _State) -> _State:
    """One tuple per distinct shell state, so the keys of every session
    in that state share it (at seed 7 and 1e-4 the memo's 10,083 keys
    hold 319 distinct states)."""
    return state


@dataclass
class CowrieHoneypot:
    """One sensor in the honeynet."""

    honeypot_id: str
    ip: str
    country: str = "ZZ"
    asn: int = 0
    hostname: str = DEFAULT_HOSTNAME
    _counter: int = field(default=0, repr=False)
    _line_memo: dict[tuple[_State, str], tuple[CommandRecord, tuple[str, ...]]] = (
        field(default_factory=dict, init=False, repr=False, compare=False)
    )

    def _make_context(
        self, intent: ConnectionIntent, user: str, session_id: str
    ) -> ShellContext:
        """Fresh per-session shell state (Cowrie is stateless)."""
        return ShellContext(
            user=user,
            hostname=self.hostname,
            remote_files=intent.remote_file_map(),
            entropy=session_id,
        )

    def handle(self, intent: ConnectionIntent, when: float) -> SessionRecord:
        """Process one client connection and return its session record."""
        self._counter += 1
        session_id = short_hash(
            f"{self.honeypot_id}:{intent.client_ip}:{when}:{self._counter}", 16
        )
        logins: list[LoginAttempt] = []
        logged_in_user: str | None = None
        for username, password in intent.credentials:
            accepted = accepts(username, password)
            logins.append(LoginAttempt(username, password, accepted))
            if accepted:
                logged_in_user = username
                break

        commands: list[CommandRecord] = []
        uris: list[str] = []
        file_events = []
        if logged_in_user is not None and intent.command_lines:
            context = self._make_context(intent, logged_in_user, session_id)
            commands = self._run_lines(
                context, intent.command_lines[:MAX_LINES_PER_SESSION]
            )
            uris = context.uris
            file_events = context.file_events

        timed_out = (
            intent.hold_open or intent.duration_s >= DEFAULT_SESSION_TIMEOUT_S
        )
        duration = DEFAULT_SESSION_TIMEOUT_S if timed_out else intent.duration_s
        port = SSH_PORT if intent.protocol == Protocol.SSH else TELNET_PORT
        return SessionRecord(
            session_id=session_id,
            honeypot_id=self.honeypot_id,
            honeypot_ip=self.ip,
            honeypot_port=port,
            protocol=intent.protocol,
            client_ip=intent.client_ip,
            client_port=intent.client_port,
            start=when,
            end=when + duration,
            ssh_version=(
                intent.ssh_version if intent.protocol == Protocol.SSH else None
            ),
            logins=logins,
            commands=commands,
            uris=uris,
            file_events=file_events,
            timed_out=timed_out,
            bot_label=intent.bot_label,
        )

    def _run_lines(
        self, context: ShellContext, lines: tuple[str, ...]
    ) -> list[CommandRecord]:
        """Run one session's lines, serving repeats from the line memo."""
        engine = ShellEngine(context)
        memo = self._line_memo
        fs = context.fs
        commands: list[CommandRecord] = []
        state: _State | None = None
        for line in lines:
            if state is None:
                env = tuple(context.env.items())
                state = _shared((context.user, context.cwd, env, fs.fingerprint))
            key = (state, line)
            hit = memo.get(key)
            if hit is not None:
                record, line_uris = hit
                context.uris.extend(line_uris)
                commands.append(record)
                continue
            uris_before = len(context.uris)
            events_before = len(context.file_events)
            password = context.root_password
            context.session_bound = False
            record = engine.run_line(line)
            commands.append(record)
            if context.exited:
                break
            if (
                context.session_bound
                or len(context.file_events) != events_before
                or context.root_password != password
                or fs.fingerprint != state[3]
                or context.cwd != state[1]
                or tuple(context.env.items()) != state[2]
            ):
                state = None
                continue
            if len(memo) >= LINE_MEMO_LIMIT:
                memo.clear()
            memo[key] = (record, tuple(context.uris[uris_before:]))
        return commands
