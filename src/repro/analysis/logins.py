"""Login-attempt analyses (paper section 8, Figures 10 and 11)."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.analysis.table import SshRows
from repro.honeypot.session import LoginAttempt
from repro.net.whois import HistoricalWhois

#: The five passwords Figure 10 tracks.
FIGURE10_PASSWORDS = (
    "3245gs5662d34",
    "1234",
    "admin",
    "dreambox",
    "vertex25ektks123",
)


def monthly_password_counts(
    months: Iterable[str], logins: Iterable[LoginAttempt | None]
) -> dict[str, Counter]:
    """Per month: intrusion sessions per successful password, from one
    month and one accepted login (or ``None``) per session."""
    result: dict[str, Counter] = defaultdict(Counter)
    for month, login in zip(months, logins):
        if login is not None:
            result[month][login.password] += 1
    return dict(result)


def top_passwords(
    logins: Iterable[LoginAttempt | None], n: int = 5
) -> list[tuple[str, int]]:
    """Overall top-n successful-login passwords."""
    totals: Counter = Counter(
        login.password for login in logins if login is not None
    )
    return totals.most_common(n)


@dataclass
class DefaultAccountStats:
    """Figure 11 statistics for one Cowrie default username."""

    username: str
    sessions: int
    successes: int
    unique_ips: int
    unique_ases: int
    silent_fraction: float        # successes with no commands at all
    monthly: dict[str, int]


def default_account_stats(
    ssh: SshRows,
    usernames: Sequence[str],
    whois: HistoricalWhois,
) -> dict[str, DefaultAccountStats]:
    """Stats for the sessions that tried each given default username,
    from one pass over the SSH sessions' login attempts."""
    matched: dict[str, list[int]] = {username: [] for username in usernames}
    for row, session in enumerate(ssh.sessions):
        for attempt in session.logins:
            rows = matched.get(attempt.username)
            if rows is not None and (not rows or rows[-1] != row):
                rows.append(row)
    return {
        username: _account_stats(ssh, username, rows, whois)
        for username, rows in matched.items()
    }


def _account_stats(
    ssh: SshRows, username: str, matched: list[int], whois: HistoricalWhois
) -> DefaultAccountStats:
    successes = [row for row in matched if ssh.login[row] is not None]
    silent = [row for row in successes if not ssh.sessions[row].commands]
    ips = {ssh.sessions[row].client_ip for row in matched}
    asns = set()
    for row in matched:
        result = whois.lookup(ssh.sessions[row].client_ip, ssh.day[row])
        if result is not None:
            asns.add(result.asn)
    monthly = Counter(ssh.month[row] for row in matched)
    return DefaultAccountStats(
        username=username,
        sessions=len(matched),
        successes=len(successes),
        unique_ips=len(ips),
        unique_ases=len(asns),
        silent_fraction=(len(silent) / len(successes)) if successes else 0.0,
        monthly=dict(monthly),
    )


def rows_with_password(
    logins: Iterable[LoginAttempt | None], password: str
) -> list[int]:
    """Rows whose accepted login used the given password."""
    return [
        row
        for row, login in enumerate(logins)
        if login is not None and login.password == password
    ]
