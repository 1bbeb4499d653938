"""Information-gathering and text-utility commands.

These are the "known" commands whose execution does not alter honeypot
state — the commands behind the paper's non-state-changing session
category (section 5).
"""

from __future__ import annotations

import codecs
from collections.abc import Sequence

from repro.honeypot.shell.context import CommandResult, ShellContext

#: What every sensor's ``uname``, ``nproc``, ``lscpu`` and ``free``
#: report; only the hostname differs from sensor to sensor.
KERNEL_NAME = "Linux"
KERNEL_RELEASE = "4.19.0-21-amd64"
KERNEL_VERSION = "#1 SMP Debian 4.19.249-2 (2022-06-30)"
MACHINE = "x86_64"
HARDWARE_PLATFORM = "GNU/Linux"
CPUS = 2
MEM_TOTAL_KB = 2_048_000


def cmd_echo(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    args = list(argv[1:])
    interpret_escapes = False
    newline = True
    while args and args[0] in ("-e", "-n", "-en", "-ne", "-E"):
        flag = args.pop(0)
        if "e" in flag:
            interpret_escapes = True
        if "n" in flag:
            newline = False
    text = " ".join(ctx.expand(arg) for arg in args)
    if interpret_escapes:
        try:
            text = codecs.decode(text.encode("latin-1", "ignore"), "unicode_escape")
        except (UnicodeDecodeError, ValueError):
            pass
    return CommandResult(output=text + ("\n" if newline else ""))


def cmd_uname(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    fields = {
        "s": KERNEL_NAME,
        "n": ctx.hostname,
        "r": KERNEL_RELEASE,
        "v": KERNEL_VERSION,
        "m": MACHINE,
        "i": MACHINE,
        "p": "unknown",
        "o": HARDWARE_PLATFORM,
    }
    flags = [arg for arg in argv[1:] if arg.startswith("-")]
    if not flags:
        return CommandResult(output=KERNEL_NAME + "\n")
    # real uname prints selected fields in its own fixed order,
    # regardless of the order the flags were given in
    requested: set[str] = set()
    for flag in flags:
        if flag in ("-a", "--all"):
            requested.update("snrvmo")
        else:
            requested.update(
                char for char in flag.lstrip("-") if char in fields
            )
    selected = [fields[key] for key in "snrvmipo" if key in requested]
    return CommandResult(output=" ".join(selected) + "\n")


def cmd_nproc(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output=f"{CPUS}\n")


def cmd_lscpu(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = [
        "Architecture:        x86_64",
        f"CPU(s):              {CPUS}",
        "Model name:          Intel(R) Xeon(R) CPU E5-2650 v4 @ 2.20GHz",
        "Thread(s) per core:  1",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_free(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    total = MEM_TOTAL_KB
    used = total // 3
    lines = [
        "              total        used        free",
        f"Mem:        {total:>7}     {used:>7}     {total - used:>7}",
        "Swap:             0           0           0",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_whoami(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output=ctx.user + "\n")


def cmd_id(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    if ctx.user == "root":
        return CommandResult(output="uid=0(root) gid=0(root) groups=0(root)\n")
    return CommandResult(
        output=f"uid=1000({ctx.user}) gid=1000({ctx.user}) groups=1000({ctx.user})\n"
    )


def cmd_w(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = [
        " 12:01:33 up 62 days,  4:01,  1 user,  load average: 0.01, 0.03, 0.00",
        "USER     TTY      FROM             LOGIN@   IDLE   JCPU   PCPU WHAT",
        f"{ctx.user:<8} pts/0    10.0.0.1         11:58    0.00s  0.01s  0.00s w",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_uptime(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(
        output=" 12:01:33 up 62 days,  4:01,  1 user,  load average: 0.01, 0.03, 0.00\n"
    )


def cmd_ps(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = [
        "  PID TTY          TIME CMD",
        "    1 ?        00:00:04 systemd",
        "  412 ?        00:00:00 sshd",
        " 1337 pts/0    00:00:00 bash",
        " 1402 pts/0    00:00:00 ps",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_top(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(
        output="top - 12:01:33 up 62 days,  1 user,  load average: 0.01, 0.03, 0.00\n"
    )


def cmd_history(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_df(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = [
        "Filesystem     1K-blocks    Used Available Use% Mounted on",
        "/dev/sda1       20509264 3735548  15708988  20% /",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_which(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    from repro.honeypot.shell.registry import default_registry

    names = argv[1:]
    registry = default_registry()
    found = [f"/usr/bin/{name}" for name in names if name in registry]
    return CommandResult(output="\n".join(found) + ("\n" if found else ""), success=bool(found))


def cmd_hostname(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output=ctx.hostname + "\n")


def cmd_ifconfig(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = [
        "eth0: flags=4163<UP,BROADCAST,RUNNING,MULTICAST>  mtu 1500",
        "        inet 10.0.0.23  netmask 255.255.255.0  broadcast 10.0.0.255",
    ]
    return CommandResult(output="\n".join(lines) + "\n")


def cmd_cat(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    paths = [arg for arg in argv[1:] if not arg.startswith("-")]
    if not paths:
        return CommandResult(output=stdin)
    chunks: list[str] = []
    success = True
    for path in paths:
        content = ctx.fs.read(ctx.resolve(path))
        if content is None:
            chunks.append(f"cat: {path}: No such file or directory\n")
            success = False
        else:
            # latin-1: lossless passthrough for binary file contents
            chunks.append(content.decode("latin-1"))
    return CommandResult(output="".join(chunks), success=success)


def cmd_ls(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    paths = [arg for arg in argv[1:] if not arg.startswith("-")] or [ctx.cwd]
    entries: list[str] = []
    for path in paths:
        resolved = ctx.resolve(path)
        if ctx.fs.is_dir(resolved):
            entries.extend(ctx.fs.listdir(resolved))
        elif ctx.fs.is_file(resolved):
            entries.append(path)
        else:
            return CommandResult(
                output=f"ls: cannot access '{path}': No such file or directory\n",
                success=False,
            )
    return CommandResult(output="\n".join(entries) + ("\n" if entries else ""))


def cmd_grep(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    args = [arg for arg in argv[1:] if not arg.startswith("-")]
    if not args:
        return CommandResult(output="", success=False)
    pattern = args[0]
    if len(args) > 1:
        content = ctx.fs.read(ctx.resolve(args[1]))
        text = content.decode("utf-8", "replace") if content is not None else ""
    else:
        text = stdin
    matched = [line for line in text.splitlines() if pattern in line]
    return CommandResult(
        output="\n".join(matched) + ("\n" if matched else ""), success=bool(matched)
    )


def _invalid_line_count(command: str, value: str) -> CommandResult:
    """GNU's reply to a line count that is not a number."""
    return CommandResult(
        output=f"{command}: invalid number of lines: '{value}'\n", success=False
    )


def cmd_head(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    count = 10
    args = list(argv[1:])
    while args and args[0].startswith("-"):
        flag = args.pop(0)
        if flag == "-n" and args:
            value = args.pop(0)
        elif flag[1:].isdecimal():
            value = flag[1:]
        else:
            continue
        try:
            count = int(value)
        except ValueError:
            return _invalid_line_count("head", value)
    text = stdin
    if args:
        content = ctx.fs.read(ctx.resolve(args[0]))
        text = content.decode("utf-8", "replace") if content is not None else ""
    lines = text.splitlines()[:count]
    return CommandResult(output="\n".join(lines) + ("\n" if lines else ""))


def cmd_tail(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """GNU ``tail``: ``-n K`` (or ``-n -K``) keeps the last K lines and
    ``-n +K`` starts at line K."""
    count = 10
    from_start = False
    args = list(argv[1:])
    while args and args[0].startswith("-"):
        flag = args.pop(0)
        if flag == "-n" and args:
            value = args.pop(0)
        elif flag[1:].isdecimal():
            value = flag[1:]
        else:
            continue
        try:
            count = abs(int(value))
        except ValueError:
            return _invalid_line_count("tail", value)
        from_start = value.startswith("+")
    text = stdin
    if args:
        content = ctx.fs.read(ctx.resolve(args[0]))
        text = content.decode("utf-8", "replace") if content is not None else ""
    lines = text.splitlines()
    first = count - 1 if from_start else len(lines) - count
    lines = lines[max(first, 0) :]
    return CommandResult(output="\n".join(lines) + ("\n" if lines else ""))


def cmd_wc(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = stdin.splitlines()
    words = stdin.split()
    return CommandResult(output=f"{len(lines)} {len(words)} {len(stdin)}\n")


def cmd_awk(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    """Minimal awk: supports '{print $N,$M;}' field selection."""
    program = next((arg for arg in argv[1:] if "{" in arg), None)
    if program is None or "print" not in program:
        return CommandResult(output=stdin)
    body = program[program.find("print") + len("print") :].strip(" {};'")
    fields = [part.strip() for part in body.split(",") if part.strip()]
    output_lines: list[str] = []
    for line in stdin.splitlines():
        columns = line.split()
        selected: list[str] = []
        for spec in fields:
            if spec == "$0":
                selected.append(line)
            elif spec.startswith("$") and spec[1:].isdecimal():
                index = int(spec[1:]) - 1
                selected.append(columns[index] if 0 <= index < len(columns) else "")
            else:
                selected.append(spec.strip('"'))
        output_lines.append(" ".join(selected))
    return CommandResult(
        output="\n".join(output_lines) + ("\n" if output_lines else "")
    )


def cmd_sort(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    lines = sorted(stdin.splitlines())
    return CommandResult(output="\n".join(lines) + ("\n" if lines else ""))


def cmd_uniq(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    seen_previous: str | None = None
    kept: list[str] = []
    for line in stdin.splitlines():
        if line != seen_previous:
            kept.append(line)
        seen_previous = line
    return CommandResult(output="\n".join(kept) + ("\n" if kept else ""))


def cmd_tr(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    if len(argv) >= 3:
        return CommandResult(output=stdin.replace(argv[1], argv[2]))
    return CommandResult(output=stdin)


def cmd_cut(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output=stdin)


def cmd_cd(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    target = argv[1] if len(argv) > 1 else ctx.env.get("HOME", "/root")
    resolved = ctx.resolve(target)
    if ctx.fs.is_dir(resolved):
        ctx.cwd = resolved
        return CommandResult(output="")
    if ctx.fs.is_file(resolved):
        reason = "Not a directory"
    else:
        reason = "No such file or directory"
    return CommandResult(output=f"-bash: cd: {target}: {reason}\n", success=False)


def cmd_pwd(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output=ctx.cwd + "\n")


def cmd_export(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    for arg in argv[1:]:
        name, equals, value = arg.partition("=")
        if equals:
            ctx.env[name] = value
    return CommandResult(output="")


def cmd_crontab(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    spool = "/var/spool/cron/root"
    args = argv[1:]
    if args and args[0] == "-l":
        content = ctx.fs.read(spool) or b""
        if not content:
            return CommandResult(
                output=f"no crontab for {ctx.user}\n", success=False
            )
        return CommandResult(output=content.decode("utf-8", "replace"))
    if args and args[0] == "-r":
        ctx.delete_file(spool)
        return CommandResult(output="")
    if args and args[0] != "-":
        content = ctx.fs.read(ctx.resolve(args[0]))
        if content is None:
            return CommandResult(
                output=f"crontab: {args[0]}: No such file or directory\n",
                success=False,
            )
    elif args or stdin:
        content = stdin.encode("utf-8")
    else:
        return CommandResult(output="")
    if error := ctx.write_file(spool, content):
        return CommandResult(output=f"crontab: {spool}: {error}\n", success=False)
    return CommandResult(output="")


def cmd_noop(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="")


def cmd_true(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="", success=True)


def cmd_false(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    return CommandResult(output="", success=False)


def cmd_exit(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    ctx.exited = True
    return CommandResult(output="")
