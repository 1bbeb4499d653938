"""BusyBox applet dispatch.

IoT loader bots lean on ``/bin/busybox`` heavily (paper section 5): both
to run transfer applets on minimal firmware and as a fingerprinting
probe — invoking busybox with a random applet name and checking for the
characteristic ``<name>: applet not found`` reply.  Cowrie emulates
exactly that reply, which is why the probe sessions still count as
"known" commands.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.honeypot.shell.context import CommandResult, ShellContext

#: Applets our busybox knows how to forward to real handlers.
FORWARDED_APPLETS = {
    "cat", "echo", "wget", "tftp", "ftpget", "chmod", "rm", "cp", "mv",
    "mkdir", "dd", "ps", "sh", "uname", "ls", "head", "tail", "grep",
    "kill", "touch",
}

USAGE = (
    "BusyBox v1.30.1 (Debian 1:1.30.1-4) multi-call binary.\n"
    "Usage: busybox [function [arguments]...]\n"
)


def cmd_busybox(ctx: ShellContext, argv: Sequence[str], stdin: str) -> CommandResult:
    if len(argv) < 2:
        return CommandResult(output=USAGE)
    applet = argv[1]
    if applet in FORWARDED_APPLETS:
        from repro.honeypot.shell.registry import default_registry

        handler = default_registry().get(applet)
        if handler is not None:
            return handler(ctx, argv[1:], stdin)
    return CommandResult(output=f"{applet}: applet not found\n", success=False)
