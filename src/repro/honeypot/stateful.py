"""A stateful honeypot — the paper's first proposed improvement.

Section 10 ("Call for Better Honeypots") argues that persistent storage
would let honeypots survive consistency probes: attackers who write a
random file and check for it in a later session (the paper's fourth
hypothesised motive for no-exec file writes, and the behaviour of bots
like ``lenni_0451`` / ``bbox_rand_exec``) detect stock Cowrie because
every session starts from a pristine filesystem.

:class:`StatefulCowrieHoneypot` keeps one persistent filesystem per
sensor (optionally per client IP), so the marker written in one session
is still there in the next — at the cost of cross-contamination
between attackers, which is why the class also supports periodic
resets (a real deployment would snapshot/rollback on a schedule).
A persistent filesystem keeps its fingerprint chain across sessions,
so the line memo's key still names the exact state a line ran in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.fs import FakeFilesystem
from repro.honeypot.session import ConnectionIntent
from repro.honeypot.shell.context import ShellContext


@dataclass
class StatefulCowrieHoneypot(CowrieHoneypot):
    """Cowrie with a persistent emulated filesystem.

    Attributes:
        per_client: isolate persistent state per client IP (prevents
            cross-attacker contamination at the cost of realism — a
            real machine has one filesystem).
        reset_after_s: wall-clock seconds after which the persistent
            state is rolled back to pristine (0 disables resets).
    """

    per_client: bool = False
    reset_after_s: float = 0.0
    _filesystems: dict[str, FakeFilesystem] = field(
        default_factory=dict, repr=False
    )
    _last_reset: dict[str, float] = field(default_factory=dict, repr=False)
    _now: float = field(default=0.0, repr=False)

    def _state_key(self, intent: ConnectionIntent) -> str:
        return intent.client_ip if self.per_client else "*"

    def _filesystem_for(self, intent: ConnectionIntent, when: float) -> FakeFilesystem:
        key = self._state_key(intent)
        fs = self._filesystems.get(key)
        last = self._last_reset.get(key, when)
        expired = (
            self.reset_after_s > 0 and when - last >= self.reset_after_s
        )
        if fs is None or expired:
            fs = FakeFilesystem()
            self._filesystems[key] = fs
            self._last_reset[key] = when
        return fs

    def handle(self, intent: ConnectionIntent, when: float):
        self._now = when
        return super().handle(intent, when)

    def _make_context(
        self, intent: ConnectionIntent, user: str, session_id: str
    ) -> ShellContext:
        return ShellContext(
            fs=self._filesystem_for(intent, self._now),
            user=user,
            hostname=self.hostname,
            remote_files=intent.remote_file_map(),
            entropy=session_id,
        )


def consistency_probe_pair(
    marker: str, directory: str = "/var/tmp"
) -> tuple[ConnectionIntent, ConnectionIntent]:
    """The two-session probe attackers use to detect stateless honeypots.

    Session one writes a random marker file; session two (later, from
    the same actor) checks whether it survived.  On stock Cowrie the
    check fails and the actor concludes "honeypot".
    """
    path = f"{directory}/.{marker}"
    write = ConnectionIntent(
        client_ip="198.51.100.77",
        credentials=(("root", "admin"),),
        command_lines=(f"echo {marker} > {path}",),
    )
    check = ConnectionIntent(
        client_ip="198.51.100.77",
        credentials=(("root", "admin"),),
        command_lines=(f"cat {path}",),
    )
    return write, check


def probe_detects_honeypot(honeypot: CowrieHoneypot, marker: str, when: float) -> bool:
    """Run a write-then-check probe; True if the honeypot is exposed.

    The check succeeds only if the marker file still *contains* the
    marker — an error message that merely echoes the path back does not
    fool the attacker.
    """
    write, check = consistency_probe_pair(marker)
    honeypot.handle(write, when)
    record = honeypot.handle(check, when + 3600.0)
    output = record.commands[0].output if record.commands else ""
    survived = any(line.strip() == marker for line in output.splitlines())
    return not survived
