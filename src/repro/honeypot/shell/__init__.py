"""Emulated Unix shell: parser, command registry, execution engine."""

from repro.honeypot.shell.context import CommandResult, ShellContext
from repro.honeypot.shell.engine import ShellEngine
from repro.honeypot.shell.parser import (
    ParseError,
    Pipeline,
    Redirect,
    SimpleCommand,
    Statement,
    parse_line,
)
from repro.honeypot.shell.registry import default_registry, resolve_path_command

__all__ = [
    "CommandResult",
    "ShellContext",
    "ShellEngine",
    "ParseError",
    "Pipeline",
    "Redirect",
    "SimpleCommand",
    "Statement",
    "parse_line",
    "default_registry",
    "resolve_path_command",
]
