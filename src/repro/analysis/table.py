"""The session table: each per-session fact the experiments share,
derived once per dataset.

The paper's figures cut one session set by a few facts over and over:
the Table-1 label, the state class and exec outcome, the accepted login,
the day and the month.  :func:`build_session_table` calls each fact's
one definition (:meth:`CommandClassifier.classify
<repro.analysis.classify.CommandClassifier.classify>`,
:func:`~repro.analysis.statechange.state_class`,
:func:`~repro.analysis.statechange.exec_outcome`,
:func:`~repro.analysis.statechange.loads_payload`,
:attr:`SessionRecord.successful_login
<repro.honeypot.session.SessionRecord.successful_login>`,
:func:`~repro.analysis.monthly.session_day`) once per session and keeps
the answers as plain lists; the experiments read the lists.

Two row sets, each aligned with one of the database's views:
:class:`SshRows` with ``database.ssh_sessions()`` and
:class:`CommandRows` with ``database.command_sessions()``.  Row ``i`` of
every column describes ``sessions[i]``.  The lists hold references to
shared objects — one ``date`` per day, one ``str`` per month, the
records' own ``LoginAttempt``s, enum members and the classifier's label
strings — so the table costs about one pointer per row per column.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from datetime import date
from typing import Iterable, TypeVar

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.monthly import session_day
from repro.analysis.statechange import (
    ExecOutcome,
    StateClass,
    exec_outcome,
    loads_payload,
    state_class,
)
from repro.honeypot.session import LoginAttempt, SessionRecord
from repro.util.timeutils import month_key

_Rows = TypeVar("_Rows", "SshRows", "CommandRows")


def take(rows: _Rows, indices: Iterable[int]) -> _Rows:
    """The same columns, at ``indices`` only and in that order."""
    indices = list(indices)
    return type(rows)(
        *(
            [column[i] for i in indices]
            for column in (getattr(rows, f.name) for f in fields(rows))
        )
    )


@dataclass(frozen=True)
class SshRows:
    """One row per SSH session, in ``database.ssh_sessions()`` order."""

    sessions: list[SessionRecord]
    day: list[date]
    month: list[str]
    #: The accepted login attempt (``session.successful_login``), or
    #: ``None`` for a session that never logged in.
    login: list[LoginAttempt | None]

    def __len__(self) -> int:
        return len(self.sessions)


@dataclass(frozen=True)
class CommandRows:
    """One row per command session, in ``database.command_sessions()``
    order."""

    sessions: list[SessionRecord]
    day: list[date]
    month: list[str]
    #: The default classifier's Table-1 rule label.
    label: list[str]
    state: list[StateClass]
    outcome: list[ExecOutcome | None]
    #: Whether the session loaded a payload (the clustering input).
    payload: list[bool]

    def __len__(self) -> int:
        return len(self.sessions)


@dataclass(frozen=True)
class SessionTable:
    """The SSH rows and the command rows of one dataset."""

    ssh: SshRows
    commands: CommandRows


def build_session_table(database) -> SessionTable:
    """Derive every column of ``database``'s table, each fact once.

    Command sessions are a subsequence of the SSH sessions (same
    objects, same order), so their day and month are read off the SSH
    row rather than derived again.
    """
    ssh = database.ssh_sessions()
    commands = database.command_sessions()
    days: dict[date, date] = {}
    month_of: dict[date, str] = {}
    months: dict[str, str] = {}
    ssh_day: list[date] = []
    ssh_month: list[str] = []
    for session in ssh:
        day = session_day(session)
        day = days.setdefault(day, day)
        month = month_of.get(day)
        if month is None:
            month = month_key(day)
            month = month_of[day] = months.setdefault(month, month)
        ssh_day.append(day)
        ssh_month.append(month)
    command_day: list[date] = []
    command_month: list[str] = []
    row = 0
    for session in commands:
        while ssh[row] is not session:
            row += 1
        command_day.append(ssh_day[row])
        command_month.append(ssh_month[row])
    return SessionTable(
        ssh=SshRows(
            sessions=ssh,
            day=ssh_day,
            month=ssh_month,
            login=[session.successful_login for session in ssh],
        ),
        commands=CommandRows(
            sessions=commands,
            day=command_day,
            month=command_month,
            label=[DEFAULT_CLASSIFIER.classify(session) for session in commands],
            state=[state_class(session) for session in commands],
            outcome=[exec_outcome(session) for session in commands],
            payload=[loads_payload(session) for session in commands],
        ),
    )
