"""System-administration commands: credentials, processes, encoding."""

from __future__ import annotations

import base64
import binascii
from collections.abc import Sequence

from repro.honeypot.shell.context import CommandResult, ShellContext
from repro.util.hashing import short_hash


def cmd_passwd(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """``passwd`` — the mdrfckr bot locks victims out with this."""
    new_password = stdin.splitlines()[0] if stdin else "hunter2"
    ctx.root_password = new_password
    return CommandResult(
        output="passwd: password updated successfully\n"
    )


def cmd_chpasswd(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    for line in stdin.splitlines():
        user, _, password = line.partition(":")
        if user == "root" and password:
            ctx.root_password = password
    return CommandResult(output="")


def cmd_openssl(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    if len(argv) > 1 and argv[1] == "passwd":
        material = argv[-1] if len(argv) > 2 else (stdin or "x")
        return CommandResult(output=f"$1$salt${short_hash(material, 22)}\n")
    return CommandResult(output="")


def cmd_base64(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    decode = any(arg in ("-d", "--decode") for arg in argv[1:])
    payload = stdin
    file_args = [arg for arg in argv[1:] if not arg.startswith("-")]
    if file_args:
        content = ctx.fs.read(ctx.resolve(file_args[0]))
        payload = content.decode("utf-8", "replace") if content is not None else ""
    if decode:
        try:
            decoded = base64.b64decode(payload, validate=False)
            # latin-1 is lossless for arbitrary bytes, so binary
            # payloads survive the str-typed shell pipeline intact
            return CommandResult(output=decoded.decode("latin-1"))
        except (binascii.Error, ValueError):
            return CommandResult(output="base64: invalid input\n", success=False)
    encoded = base64.b64encode(payload.encode("utf-8")).decode("ascii")
    return CommandResult(output=encoded + "\n")


def cmd_pkill(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_kill(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_killall(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_service(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_systemctl(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_iptables(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_ulimit(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="unlimited\n")


def cmd_sleep(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_sync(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_apt(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="Reading package lists... Done\n")


def cmd_yum(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="Loaded plugins: fastestmirror\n")


def cmd_perl(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """``perl script`` is an exec attempt; ``perl -e`` is inline."""
    args = [arg for arg in argv[1:] if not arg.startswith("-")]
    inline = any(arg == "-e" for arg in argv[1:])
    if inline or not args:
        return CommandResult(output="")
    return ctx.execute_file(args[0])


def cmd_python(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    args = [arg for arg in argv[1:] if not arg.startswith("-")]
    inline = any(arg == "-c" for arg in argv[1:])
    if inline or not args:
        return CommandResult(output="")
    return ctx.execute_file(args[0])


def cmd_nohup(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """``nohup cmd`` — defer to the engine for the wrapped command."""
    from repro.honeypot.shell.engine import run_wrapped

    return run_wrapped(ctx, argv[1:], stdin)


def cmd_sudo(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    from repro.honeypot.shell.engine import run_wrapped

    return run_wrapped(ctx, argv[1:], stdin)


def cmd_sh(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """``sh script`` executes a file; ``sh -c "..."`` runs inline."""
    from repro.honeypot.shell.engine import ShellEngine

    args = list(argv[1:])
    if args and args[0] == "-c" and len(args) > 1:
        engine = ShellEngine(ctx)
        record = engine.run_text(args[1])
        return CommandResult(output=record.output, known=record.known)
    file_args = [arg for arg in args if not arg.startswith("-")]
    if file_args:
        return ctx.execute_file(file_args[0])
    if stdin:
        engine = ShellEngine(ctx)
        record = engine.run_text(stdin)
        return CommandResult(output=record.output, known=record.known)
    return CommandResult(output="")
