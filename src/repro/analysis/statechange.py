"""State-change classification of command sessions (paper section 5).

A session "changes the state of the honeypot" when at least one command
edits/deletes files or actively alters the system: any file event, any
download attempt (the command's purpose is to add a file, whether or
not the server cooperated), any credential or cron change.  Sessions
whose commands only gather information are non-state-changing.

Within state-changing sessions, the paper splits on whether a *file
execution* was attempted (Figure 3(b) vs 3(a)), and — for execution
attempts — whether the executed file was ever actually present
(Figure 4(a) vs 4(b)).  A session that *loaded a payload* is the
clustering input of section 6.
"""

from __future__ import annotations

import re
from enum import Enum

from repro.honeypot.session import FileOp, SessionRecord

#: Command stems whose *intent* is a state change even when the
#: emulation produced no file event (failed downloads, password or
#: process manipulation, uncaptured transfer channels).
_STATE_COMMAND_PATTERN = re.compile(
    r"(?:^|[;&|(\s])"
    r"(wget|curl|tftp|ftpget|ftp|scp|rsync|sftp|chpasswd|passwd|"
    r"pkill|killall|iptables)\b"
)


class StateClass(str, Enum):
    """The paper's session buckets within command sessions."""

    NON_STATE = "non_state"
    STATE_NO_EXEC = "state_no_exec"
    STATE_EXEC = "state_exec"


class ExecOutcome(str, Enum):
    """Figure 4's split of execution attempts."""

    FILE_EXISTS = "file exists"
    FILE_MISSING = "file missing"


def has_exec_attempt(session: SessionRecord) -> bool:
    """Whether any command tried to execute a file."""
    return any(
        event.op in (FileOp.EXECUTE, FileOp.EXECUTE_MISSING)
        for event in session.file_events
    )


def changes_state(session: SessionRecord) -> bool:
    """Whether the session alters the honeypot's state."""
    if session.file_events:
        return True
    return bool(_STATE_COMMAND_PATTERN.search(session.command_text))


def state_class(session: SessionRecord) -> StateClass:
    """Full three-way classification of a command session."""
    if has_exec_attempt(session):
        return StateClass.STATE_EXEC
    if changes_state(session):
        return StateClass.STATE_NO_EXEC
    return StateClass.NON_STATE


def exec_outcome(session: SessionRecord) -> ExecOutcome | None:
    """For execution attempts: did the executed file ever exist?

    A session with at least one successful (file-present) execution is
    "file exists"; a session whose every execution attempt targeted a
    missing file is "file missing".  Non-exec sessions return ``None``.
    """
    saw_exec = False
    saw_present = False
    for event in session.file_events:
        if event.op == FileOp.EXECUTE:
            saw_exec = True
            saw_present = True
        elif event.op == FileOp.EXECUTE_MISSING:
            saw_exec = True
    if not saw_exec:
        return None
    return ExecOutcome.FILE_EXISTS if saw_present else ExecOutcome.FILE_MISSING


def loads_payload(session: SessionRecord) -> bool:
    """Whether the session loaded a payload (the clustering input).

    A payload load is either a captured transfer (wget/curl/tftp/
    ftpget artifact) or a shell-written file that the session then
    executed (echo-hex droppers).  Plain configuration writes — e.g.
    the mdrfckr authorized_keys install — are not payload loads.
    """
    if session.transfer_hashes():
        return True
    return any(
        event.op == FileOp.EXECUTE and event.sha256
        for event in session.file_events
    )
