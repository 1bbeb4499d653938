"""Reference implementations the emulated shell is checked against.

* :func:`reference_tokenize` is the parser's original character loop;
  the segment tokenizer must split every line the same way.
* :class:`MemolessHoneypot` and :class:`MemolessStatefulHoneypot` run
  every line through :meth:`ShellEngine.run_line`, with no line memo.
  :func:`memo_differential` replays each session of a simulation through
  a memo-less twin of its sensor and reports every record that differs.

``scripts/soak.py`` imports this module too, so it holds no test.
"""

from __future__ import annotations

from dataclasses import fields

from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig
from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.session import CommandRecord, ConnectionIntent, SessionRecord
from repro.honeypot.shell.context import ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.honeypot.shell.parser import ParseError
from repro.honeypot.stateful import StatefulCowrieHoneypot


def reference_tokenize(line: str) -> list[str]:
    """The tokenizer as one loop over characters."""
    tokens: list[str] = []
    current: list[str] = []
    has_current = False
    index = 0
    length = len(line)
    while index < length:
        char = line[index]
        if char == "\\" and index + 1 < length:
            current.append(line[index + 1])
            has_current = True
            index += 2
            continue
        if char in ("'", '"'):
            quote = char
            index += 1
            start = index
            while index < length and line[index] != quote:
                if quote == '"' and line[index] == "\\" and index + 1 < length:
                    index += 2
                    continue
                index += 1
            if index >= length:
                raise ParseError(f"unterminated quote in {line!r}")
            current.append(line[start:index].replace('\\"', '"'))
            has_current = True
            index += 1
            continue
        if char in " \t":
            if has_current:
                tokens.append("".join(current))
                current, has_current = [], False
            index += 1
            continue
        two = line[index : index + 2]
        if two == "2>" and not has_current:
            tokens.append("2>")
            index += 2
            continue
        if two in ("&&", "||", ">>"):
            if has_current:
                tokens.append("".join(current))
                current, has_current = [], False
            tokens.append(two)
            index += 2
            continue
        if char in ";|><&\n":
            if has_current:
                tokens.append("".join(current))
                current, has_current = [], False
            tokens.append(char)
            index += 1
            continue
        current.append(char)
        has_current = True
        index += 1
    if has_current:
        tokens.append("".join(current))
    return tokens


def _run_every_line(
    context: ShellContext, lines: tuple[str, ...]
) -> list[CommandRecord]:
    engine = ShellEngine(context)
    commands: list[CommandRecord] = []
    for line in lines:
        commands.append(engine.run_line(line))
        if context.exited:
            break
    return commands


class MemolessHoneypot(CowrieHoneypot):
    """A stateless sensor that emulates every line it is sent."""

    _run_lines = staticmethod(_run_every_line)


class MemolessStatefulHoneypot(StatefulCowrieHoneypot):
    """A persistent-filesystem sensor that emulates every line it is sent."""

    _run_lines = staticmethod(_run_every_line)


def twin(honeypot: CowrieHoneypot, cls: type = MemolessHoneypot) -> CowrieHoneypot:
    """A memo-less sensor with ``honeypot``'s identity and counter."""
    return cls(
        **{f.name: getattr(honeypot, f.name) for f in fields(honeypot) if f.init}
    )


def memo_differential(config: SimulationConfig):
    """Run ``config`` and replay every session through a memo-less twin.

    Returns the run, every ``(intent, when)`` the sensors handled in
    order, and the ids of the sessions whose record differs from the
    twin's (commands, URIs and file events included).
    """
    handled: list[tuple[ConnectionIntent, float]] = []
    mismatches: list[str] = []
    memoized = CowrieHoneypot.handle

    def checked(self, intent: ConnectionIntent, when: float) -> SessionRecord:
        reference = twin(self)
        record = memoized(self, intent, when)
        if memoized(reference, intent, when) != record:
            mismatches.append(record.session_id)
        handled.append((intent, when))
        return record

    CowrieHoneypot.handle = checked
    try:
        result = run_simulation(config)
    finally:
        CowrieHoneypot.handle = memoized
    return result, handled, mismatches


def stateful_differential(
    handled: list[tuple[ConnectionIntent, float]],
) -> tuple[int, list[int]]:
    """Replay ``handled`` in order through one persistent filesystem,
    with and without the memo; returns the memo's final size and the
    indices whose records differ."""
    memoized = StatefulCowrieHoneypot("hp-stateful", "192.0.2.1")
    reference = MemolessStatefulHoneypot("hp-stateful", "192.0.2.1")
    mismatches = [
        index
        for index, (intent, when) in enumerate(handled)
        if memoized.handle(intent, when) != reference.handle(intent, when)
    ]
    return len(memoized._line_memo), mismatches
