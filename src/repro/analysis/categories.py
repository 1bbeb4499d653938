"""Top-level session taxonomy (paper section 3.3).

Every session falls into exactly one of four categories based on how
far the client got: Scanning (handshake only), Scouting (failed
logins), Intrusion (login, no commands), Command Execution (login and
at least one command).
"""

from __future__ import annotations

from collections import Counter
from enum import Enum

from repro.honeypot.session import LoginAttempt, SessionRecord


class SessionCategory(str, Enum):
    """The four top-level session categories."""

    SCANNING = "Scanning"
    SCOUTING = "Scouting"
    INTRUSION = "Intrusion"
    COMMAND_EXECUTION = "Command Execution"


def categorize(
    session: SessionRecord, login: LoginAttempt | None
) -> SessionCategory:
    """Classify one session whose accepted login attempt is ``login``
    (``session.successful_login``: the session table's login column)."""
    if not session.logins:
        return SessionCategory.SCANNING
    if login is None:
        return SessionCategory.SCOUTING
    if not session.executed_commands:
        return SessionCategory.INTRUSION
    return SessionCategory.COMMAND_EXECUTION


def category_counts(
    sessions: list[SessionRecord], logins: list[LoginAttempt | None]
) -> Counter:
    """Counts per category over sessions and their aligned accepted
    logins."""
    return Counter(map(categorize, sessions, logins))
