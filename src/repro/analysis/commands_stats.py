"""Known/unknown command statistics (paper section 3.2).

The honeypot records each input line as a "known" (emulated) or
"unknown" command.  Unknown lines are the visibility boundary of the
deployment — scp/rsync/sftp transfers live there, which is exactly why
Figure 4(b)'s files go missing.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass

from repro.honeypot.session import SessionRecord

_FIRST_WORD = re.compile(r"^\s*([A-Za-z0-9_./-]+)")


@dataclass
class CommandVisibility:
    """Aggregate known/unknown command-line statistics."""

    known_lines: int
    unknown_lines: int
    top_unknown_commands: list[tuple[str, int]]

    @property
    def total_lines(self) -> int:
        return self.known_lines + self.unknown_lines

    @property
    def unknown_fraction(self) -> float:
        if self.total_lines == 0:
            return 0.0
        return self.unknown_lines / self.total_lines


def first_command_word(raw: str) -> str:
    """The leading command name of an input line (best effort)."""
    match = _FIRST_WORD.match(raw)
    return match.group(1) if match else ""


def command_visibility(
    sessions: list[SessionRecord], top_n: int = 10
) -> CommandVisibility:
    """Known/unknown line counts plus the most common unknown commands."""
    known = 0
    unknown = 0
    unknown_names: Counter = Counter()
    for session in sessions:
        for record in session.commands:
            if record.known:
                known += 1
            else:
                unknown += 1
                name = first_command_word(record.raw)
                if name:
                    unknown_names[name] += 1
    return CommandVisibility(
        known_lines=known,
        unknown_lines=unknown,
        top_unknown_commands=unknown_names.most_common(top_n),
    )
