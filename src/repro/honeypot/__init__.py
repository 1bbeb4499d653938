"""Cowrie-like medium-interaction SSH/Telnet honeypot."""

from repro.honeypot.cowrie import MAX_LINES_PER_SESSION, CowrieHoneypot
from repro.honeypot.fs import FakeFilesystem, FileNode
from repro.honeypot.session import (
    CommandRecord,
    ConnectionIntent,
    FileEvent,
    FileOp,
    LoginAttempt,
    Protocol,
    SessionRecord,
)
from repro.honeypot.stateful import (
    StatefulCowrieHoneypot,
    consistency_probe_pair,
    probe_detects_honeypot,
)
from repro.honeypot.uri import extract_uris

__all__ = [
    "StatefulCowrieHoneypot",
    "consistency_probe_pair",
    "probe_detects_honeypot",
    "CowrieHoneypot",
    "MAX_LINES_PER_SESSION",
    "FakeFilesystem",
    "FileNode",
    "CommandRecord",
    "ConnectionIntent",
    "FileEvent",
    "FileOp",
    "LoginAttempt",
    "Protocol",
    "SessionRecord",
    "extract_uris",
]
