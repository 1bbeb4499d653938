"""File-manipulation commands — the state-changing half of the shell."""

from __future__ import annotations

from collections.abc import Sequence

from repro.honeypot.session import FileOp
from repro.honeypot.shell.context import CommandResult, ShellContext


def _expand_glob(ctx: ShellContext, pattern: str) -> list[str]:
    """Expand a trailing ``*`` glob against the fake filesystem."""
    if "*" not in pattern:
        return [pattern]
    resolved = ctx.resolve(pattern)
    directory, _, name_pattern = resolved.rpartition("/")
    directory = directory or "/"
    if not ctx.fs.is_dir(directory):
        return []
    prefix = name_pattern.split("*", 1)[0]
    return [
        f"{directory.rstrip('/')}/{name}"
        for name in ctx.fs.listdir(directory)
        if name.startswith(prefix)
    ]


def cmd_mkdir(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    targets = [arg for arg in argv[1:] if not arg.startswith("-")]
    for target in targets:
        ctx.fs.mkdirs(ctx.resolve(target))
    return CommandResult(output="")


def cmd_rm(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    flags = [arg for arg in argv[1:] if arg.startswith("-")]
    recursive = any("r" in flag or "R" in flag for flag in flags)
    targets = [arg for arg in argv[1:] if not arg.startswith("-")]
    success = True
    for target in targets:
        for expanded in _expand_glob(ctx, target):
            resolved = ctx.resolve(expanded)
            if ctx.fs.is_dir(resolved):
                if recursive:
                    for victim in ctx.fs.delete_tree(resolved):
                        ctx.record_event(victim, FileOp.DELETE, None)
                else:
                    success = False
            elif not ctx.delete_file(resolved):
                success = False
    return CommandResult(output="", success=success)


def cmd_chmod(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    targets = [
        arg
        for arg in argv[1:]
        if not arg.startswith("-") and not _looks_like_mode(arg)
    ]
    success = True
    for target in targets:
        for expanded in _expand_glob(ctx, target):
            if not ctx.fs.chmod_exec(ctx.resolve(expanded)):
                success = False
    return CommandResult(output="", success=success)


def _looks_like_mode(token: str) -> bool:
    if token.isdigit():
        return True
    return all(char in "ugoarwxXst+-=," for char in token) and any(
        char in "+-=" for char in token
    )


def cmd_mv(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    args = [arg for arg in argv[1:] if not arg.startswith("-")]
    if len(args) < 2:
        return CommandResult(output="mv: missing file operand\n", success=False)
    source, destination = ctx.resolve(args[0]), ctx.resolve(args[1])
    content = ctx.fs.read(source)
    if content is None:
        return CommandResult(
            output=f"mv: cannot stat '{args[0]}': No such file or directory\n",
            success=False,
        )
    if ctx.fs.is_dir(destination):
        destination = destination.rstrip("/") + "/" + source.rsplit("/", 1)[-1]
    ctx.write_file(destination, content)
    ctx.delete_file(source)
    return CommandResult(output="")


def cmd_cp(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    args = [arg for arg in argv[1:] if not arg.startswith("-")]
    if len(args) < 2:
        return CommandResult(output="cp: missing file operand\n", success=False)
    source, destination = ctx.resolve(args[0]), ctx.resolve(args[1])
    content = ctx.fs.read(source)
    if content is None:
        return CommandResult(
            output=f"cp: cannot stat '{args[0]}': No such file or directory\n",
            success=False,
        )
    if ctx.fs.is_dir(destination):
        destination = destination.rstrip("/") + "/" + source.rsplit("/", 1)[-1]
    ctx.write_file(destination, content)
    return CommandResult(output="")


def cmd_touch(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    targets = [arg for arg in argv[1:] if not arg.startswith("-")]
    for target in targets:
        resolved = ctx.resolve(target)
        if not ctx.fs.is_file(resolved):
            ctx.write_file(resolved, b"")
    return CommandResult(output="")


def cmd_dd(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    options = dict(
        arg.split("=", 1) for arg in argv[1:] if "=" in arg and not arg.startswith("-")
    )
    block_size = options.get("bs", "512")
    source = options.get("if")
    destination = options.get("of")
    content = b"\x00" * 64
    if source and "urandom" in source or source == "/dev/random":
        import hashlib

        content = hashlib.sha256(
            f"{ctx.entropy}:{source}:{destination}".encode("utf-8")
        ).digest()
    elif source:
        read = ctx.fs.read(ctx.resolve(source))
        if read is not None:
            content = read
    elif stdin:
        content = stdin.encode("utf-8")
    if destination:
        ctx.write_file(destination, content)
        return CommandResult(output="1+0 records in\n1+0 records out\n")
    length = int(block_size) if block_size.isdecimal() else 512
    preview = content[:length]
    return CommandResult(
        output=preview.decode("utf-8", "replace") + "\n1+0 records in\n1+0 records out\n"
    )


def cmd_sed(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    in_place = any(arg.startswith("-i") for arg in argv[1:])
    file_args = [
        arg for arg in argv[1:] if not arg.startswith("-") and "/" in arg and "s/" != arg[:2]
    ]
    if in_place and file_args:
        resolved = ctx.resolve(file_args[-1])
        content = ctx.fs.read(resolved)
        if content is not None:
            ctx.write_file(resolved, content)
    return CommandResult(output=stdin)


def cmd_chattr(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_ln(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_tar(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_gunzip(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")
