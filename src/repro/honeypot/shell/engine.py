"""Execution engine tying parser, registry and context together."""

from __future__ import annotations

from collections.abc import Sequence

from repro.honeypot.session import CommandRecord
from repro.honeypot.shell.context import CommandResult, ShellContext
from repro.honeypot.shell.parser import ParseError, Pipeline, SimpleCommand, parse_line
from repro.honeypot.shell.registry import default_registry, resolve_path_command
from repro.honeypot.uri import extract_uris

#: Recursion guard for ``sh -c`` / ``nohup`` style wrapping.
MAX_DEPTH = 6


class ShellEngine:
    """Executes input lines against a :class:`ShellContext`."""

    def __init__(self, context: ShellContext) -> None:
        self.context = context

    def run_line(self, raw: str) -> CommandRecord:
        """Execute one input line and return its session record.

        Parse failures are recorded verbatim as unknown input — the
        honeypot never crashes on hostile syntax.
        """
        uris_before = len(self.context.uris)
        try:
            statements = parse_line(raw)
        except ParseError:
            self._record_raw_uris(raw, uris_before)
            return CommandRecord(raw=raw, known=False, output="")
        outputs: list[str] = []
        known = True
        previous_succeeded = True
        for statement in statements:
            if statement.connector == "&&" and not previous_succeeded:
                continue
            if statement.connector == "||" and previous_succeeded:
                continue
            result = self._run_pipeline(statement.pipeline)
            outputs.append(result.output)
            known = known and result.known
            previous_succeeded = result.success
            if self.context.exited:
                break
        self._record_raw_uris(raw, uris_before)
        return CommandRecord(raw=raw, known=known, output="".join(outputs))

    def run_text(self, text: str) -> CommandRecord:
        """Execute a multi-line script body (``sh -c`` / piped scripts)."""
        outputs: list[str] = []
        known = True
        for line in text.splitlines():
            if not line.strip():
                continue
            record = self.run_line(line)
            outputs.append(record.output)
            known = known and record.known
            if self.context.exited:
                break
        return CommandRecord(raw=text, known=known, output="".join(outputs))

    def _record_raw_uris(self, raw: str, uris_before: int) -> None:
        """Record URIs literally present in the line, unless a handler
        already recorded them while executing it."""
        recorded_this_line = set(self.context.uris[uris_before:])
        for uri in extract_uris(raw):
            if uri not in recorded_this_line:
                self.context.record_uri(uri)
                recorded_this_line.add(uri)

    def _run_pipeline(self, pipeline: Pipeline) -> CommandResult:
        stdin = ""
        result = CommandResult(output="")
        for stage in pipeline.stages:
            result = self._run_simple(stage, stdin)
            redirect = stage.redirects[-1] if stage.redirects else None
            if redirect is not None:
                target = self.context.expand(redirect.target)
                if target not in ("/dev/null",):
                    # latin-1 keeps binary payloads written through the
                    # shell byte-exact (echo -e / base64 -d droppers)
                    self.context.write_file(
                        target,
                        result.output.encode("latin-1", "replace"),
                        append=(redirect.op == ">>"),
                    )
                result = CommandResult(output="", success=result.success, known=result.known)
            stdin = result.output
        return result

    def _run_simple(self, command: SimpleCommand, stdin: str) -> CommandResult:
        for name, value in command.assignments:
            self.context.env[name] = self.context.expand(value)
        if not command.argv:
            return CommandResult(output="", success=True)
        name = command.argv[0]
        registry = default_registry()
        handler = registry.get(name)
        if handler is not None:
            return handler(self.context, command.argv, stdin)
        if "/" in name:
            mapped = resolve_path_command(name)
            if mapped is not None:
                return registry[mapped](self.context, command.argv, stdin)
            return self.context.execute_file(name)
        return CommandResult(
            output=f"-bash: {name}: command not found\n",
            success=False,
            known=False,
        )


def run_wrapped(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """Run ``argv`` as a wrapped command (``nohup``/``sudo`` bodies)."""
    if not argv:
        return CommandResult(output="")
    depth = getattr(ctx, "_wrap_depth", 0)
    if depth >= MAX_DEPTH:
        return CommandResult(output="", success=False)
    ctx._wrap_depth = depth + 1
    try:
        engine = ShellEngine(ctx)
        return engine._run_simple(SimpleCommand(argv=tuple(argv)), stdin)
    finally:
        ctx._wrap_depth = depth
