"""Credential dictionaries shared across bots.

Drives Figure 10's password ranking: after the 3245gs5662d34 campaign,
``1234`` and ``admin`` dominate successful-root-login passwords, with a
long tail of classic brute-force dictionary entries.
"""

from __future__ import annotations

import random

from repro.util.rng import WeightedTable

#: Passwords offered with ``root`` by ordinary command bots / intruders.
#: All of these are accepted by the honeypot policy (anything but the
#: literal "root" succeeds); naive dictionaries that do try "root" are
#: modelled by the scouting credential table below.
ROOT_PASSWORDS: list[tuple[str, float]] = [
    ("1234", 0.22),
    ("admin", 0.20),
    ("123456", 0.12),
    ("password", 0.08),
    ("12345678", 0.06),
    ("qwerty", 0.04),
    ("1qaz2wsx", 0.03),
    ("admin123", 0.03),
    ("root123", 0.03),
    ("toor", 0.02),
    ("changeme", 0.02),
    ("default", 0.02),
    ("111111", 0.02),
    ("abc123", 0.02),
    ("letmein", 0.02),
    ("pass", 0.02),
    ("12345", 0.02),
    ("666666", 0.01),
    ("system", 0.01),
    ("vizxv", 0.01),
]

#: Usernames tried by scouting brute-forcers (all rejected except root,
#: and root only fails here because the password offered is "root").
SCOUT_CREDENTIALS: list[tuple[tuple[str, str], float]] = [
    (("root", "root"), 0.30),
    (("admin", "admin"), 0.18),
    (("user", "user"), 0.08),
    (("pi", "raspberry"), 0.07),
    (("test", "test"), 0.07),
    (("oracle", "oracle"), 0.05),
    (("ubnt", "ubnt"), 0.05),
    (("guest", "guest"), 0.05),
    (("postgres", "postgres"), 0.04),
    (("git", "git"), 0.04),
    (("ftpuser", "ftpuser"), 0.03),
    (("support", "support"), 0.03),
    (("nagios", "nagios"), 0.03),
    (("deploy", "deploy"), 0.02),
    (("www", "www"), 0.02),
    (("mysql", "mysql"), 0.02),
]


_ROOT_PASSWORD_TABLE = WeightedTable(ROOT_PASSWORDS)
_SCOUT_CREDENTIAL_TABLE = WeightedTable(SCOUT_CREDENTIALS)


def root_credential(rng: random.Random) -> tuple[str, str]:
    """A ``root`` + dictionary-password pair (usually accepted)."""
    password = _ROOT_PASSWORD_TABLE.pick(rng)
    return ("root", str(password))


def scout_credential(rng: random.Random) -> tuple[str, str]:
    """A credential pair that the honeypot policy rejects."""
    pair = _SCOUT_CREDENTIAL_TABLE.pick(rng)
    return tuple(pair)  # type: ignore[return-value]
