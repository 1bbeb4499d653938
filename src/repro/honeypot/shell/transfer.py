"""Download commands: the honeypot's artifact-capture path.

Cowrie intentionally implements ``wget``/``curl``/``tftp``-style
retrieval so it can capture dropped malware (paper section 5, "Web
attacks").  In the simulation, what the outside world would serve is in
``ctx.remote_files``; a URL absent from it behaves like an unreachable
or refusing server, so no artifact (and no hash) is recorded — this is
how loader campaigns whose infrastructure ignores honeypots appear.
Every lookup goes through :meth:`ShellContext.fetch`.

``scp``/``rsync``/``sftp`` are deliberately *not* registered: the
deployed Cowrie cannot capture files transferred with them (the paper's
"file missing" phenomenon, Figure 4(b)).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.honeypot.shell.context import CommandResult, ShellContext


def _basename_from_url(url: str) -> str:
    path = url.split("://", 1)[-1]
    path = path.split("?", 1)[0]
    name = path.rsplit("/", 1)[-1]
    return name or "index.html"


def cmd_wget(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    output_path: str | None = None
    quiet = False
    urls: list[str] = []
    args = list(argv[1:])
    index = 0
    while index < len(args):
        arg = args[index]
        if arg in ("-O", "--output-document") and index + 1 < len(args):
            output_path = args[index + 1]
            index += 2
            continue
        if arg in ("-q", "--quiet"):
            quiet = True
            index += 1
            continue
        if arg.startswith("-"):
            index += 1
            continue
        urls.append(arg if "://" in arg else f"http://{arg}")
        index += 1
    if not urls:
        return CommandResult(output="wget: missing URL\n", success=False)
    outputs: list[str] = []
    success = True
    for url in urls:
        ctx.record_uri(url)
        content = ctx.fetch(url)
        if content is None:
            outputs.append(f"wget: unable to resolve host address\n")
            success = False
            continue
        target = output_path or _basename_from_url(url)
        if target == "-":
            # wget -O -: stream the body to stdout (curl|sh loaders)
            outputs.append(content.decode("latin-1"))
        elif target != "/dev/null":
            ctx.write_file(target, content, source="transfer")
        if target != "-" and not quiet:
            outputs.append(f"'{target}' saved [{len(content)}]\n")
    return CommandResult(output="".join(outputs), success=success)


def cmd_curl(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    output_path: str | None = None
    remote_name = False
    urls: list[str] = []
    args = list(argv[1:])
    index = 0
    consumes_value = {
        "-o", "--output", "-X", "--request", "--max-redirs", "--cookie",
        "--referer", "-H", "--header", "-d", "--data", "--connect-timeout",
        "-A", "--user-agent",
    }
    while index < len(args):
        arg = args[index]
        if arg in ("-o", "--output") and index + 1 < len(args):
            output_path = args[index + 1]
            index += 2
            continue
        if arg in ("-O", "--remote-name"):
            remote_name = True
            index += 1
            continue
        if arg in consumes_value and index + 1 < len(args):
            index += 2
            continue
        if arg.startswith("-"):
            index += 1
            continue
        urls.append(arg if "://" in arg else f"http://{arg}")
        index += 1
    if not urls:
        return CommandResult(
            output="curl: try 'curl --help' for more information\n", success=False
        )
    outputs: list[str] = []
    success = True
    for url in urls:
        ctx.record_uri(url)
        content = ctx.fetch(url)
        if content is None:
            outputs.append(f"curl: (7) Failed to connect\n")
            success = False
            continue
        if output_path and output_path not in ("-", "/dev/null"):
            ctx.write_file(output_path, content, source="transfer")
        elif remote_name:
            ctx.write_file(_basename_from_url(url), content, source="transfer")
        else:
            outputs.append(content.decode("utf-8", "replace"))
    return CommandResult(output="".join(outputs), success=success)


def cmd_tftp(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    host: str | None = None
    filename: str | None = None
    args = list(argv[1:])
    index = 0
    while index < len(args):
        arg = args[index]
        if arg in ("-r", "-l", "-c") and index + 1 < len(args):
            if arg in ("-r", "-l"):
                filename = args[index + 1]
            index += 2
            continue
        if arg in ("-g", "-p"):
            index += 1
            continue
        if arg == "get" and index + 1 < len(args):
            filename = args[index + 1]
            index += 2
            continue
        if not arg.startswith("-") and host is None:
            host = arg
            index += 1
            continue
        if not arg.startswith("-") and filename is None:
            filename = arg
            index += 1
            continue
        index += 1
    if host is None or filename is None:
        return CommandResult(output="tftp: usage error\n", success=False)
    url = f"tftp://{host}/{filename}"
    ctx.record_uri(url)
    content = ctx.fetch(url)
    if content is None:
        return CommandResult(output="tftp: timeout\n", success=False)
    ctx.write_file(filename, content, source="transfer")
    return CommandResult(output="")


def cmd_ftpget(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    cleaned: list[str] = []
    flags_with_value = {"-u", "-p", "-P"}
    index = 1
    while index < len(argv):
        arg = argv[index]
        if arg in flags_with_value and index + 1 < len(argv):
            index += 2
            continue
        if arg.startswith("-"):
            index += 1
            continue
        cleaned.append(arg)
        index += 1
    if len(cleaned) < 2:
        return CommandResult(output="ftpget: usage error\n", success=False)
    host = cleaned[0]
    local = cleaned[1]
    remote = cleaned[2] if len(cleaned) > 2 else cleaned[1]
    url = f"ftp://{host}/{remote.lstrip('/')}"
    ctx.record_uri(url)
    content = ctx.fetch(url)
    if content is None:
        return CommandResult(output="ftpget: connection refused\n", success=False)
    ctx.write_file(local, content, source="transfer")
    return CommandResult(output="")


def cmd_ftp(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    hosts = [arg for arg in argv[1:] if not arg.startswith("-")]
    if hosts:
        ctx.record_uri(f"ftp://{hosts[0]}/")
    return CommandResult(output="")
