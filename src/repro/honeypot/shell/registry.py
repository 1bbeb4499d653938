"""The table of commands the honeypot emulates ("known" commands).

Anything *not* in this registry is recorded verbatim and flagged
unknown — notably ``scp``, ``rsync`` and ``sftp``, whose absence is a
real Cowrie limitation the paper shows attackers exploiting.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.honeypot.shell import builtins, fileops, system, transfer
from repro.honeypot.shell.busybox import cmd_busybox
from repro.honeypot.shell.context import CommandResult, ShellContext

Handler = Callable[[ShellContext, Sequence[str], str], CommandResult]

_REGISTRY: dict[str, Handler] | None = None


def _build() -> dict[str, Handler]:
    registry: dict[str, Handler] = {
        # information gathering
        "echo": builtins.cmd_echo,
        "uname": builtins.cmd_uname,
        "nproc": builtins.cmd_nproc,
        "lscpu": builtins.cmd_lscpu,
        "free": builtins.cmd_free,
        "whoami": builtins.cmd_whoami,
        "id": builtins.cmd_id,
        "w": builtins.cmd_w,
        "uptime": builtins.cmd_uptime,
        "ps": builtins.cmd_ps,
        "top": builtins.cmd_top,
        "history": builtins.cmd_history,
        "df": builtins.cmd_df,
        "which": builtins.cmd_which,
        "hostname": builtins.cmd_hostname,
        "ifconfig": builtins.cmd_ifconfig,
        "cat": builtins.cmd_cat,
        "ls": builtins.cmd_ls,
        "grep": builtins.cmd_grep,
        "egrep": builtins.cmd_grep,
        "head": builtins.cmd_head,
        "tail": builtins.cmd_tail,
        "wc": builtins.cmd_wc,
        "awk": builtins.cmd_awk,
        "sort": builtins.cmd_sort,
        "uniq": builtins.cmd_uniq,
        "tr": builtins.cmd_tr,
        "cut": builtins.cmd_cut,
        "cd": builtins.cmd_cd,
        "pwd": builtins.cmd_pwd,
        "export": builtins.cmd_export,
        "set": builtins.cmd_export,
        "crontab": builtins.cmd_crontab,
        "lspci": builtins.cmd_noop,
        "getconf": builtins.cmd_noop,
        "true": builtins.cmd_true,
        "false": builtins.cmd_false,
        "test": builtins.cmd_true,
        "[": builtins.cmd_true,
        "exit": builtins.cmd_exit,
        "logout": builtins.cmd_exit,
        # file operations
        "mkdir": fileops.cmd_mkdir,
        "rm": fileops.cmd_rm,
        "chmod": fileops.cmd_chmod,
        "mv": fileops.cmd_mv,
        "cp": fileops.cmd_cp,
        "touch": fileops.cmd_touch,
        "dd": fileops.cmd_dd,
        "sed": fileops.cmd_sed,
        "chattr": fileops.cmd_chattr,
        "ln": fileops.cmd_ln,
        "tar": fileops.cmd_tar,
        "gunzip": fileops.cmd_gunzip,
        # transfer (artifact capture)
        "wget": transfer.cmd_wget,
        "curl": transfer.cmd_curl,
        "tftp": transfer.cmd_tftp,
        "ftpget": transfer.cmd_ftpget,
        "ftp": transfer.cmd_ftp,
        # system administration
        "passwd": system.cmd_passwd,
        "chpasswd": system.cmd_chpasswd,
        "openssl": system.cmd_openssl,
        "base64": system.cmd_base64,
        "pkill": system.cmd_pkill,
        "kill": system.cmd_kill,
        "killall": system.cmd_killall,
        "service": system.cmd_service,
        "systemctl": system.cmd_systemctl,
        "iptables": system.cmd_iptables,
        "ulimit": system.cmd_ulimit,
        "sleep": system.cmd_sleep,
        "sync": system.cmd_sync,
        "apt": system.cmd_apt,
        "apt-get": system.cmd_apt,
        "yum": system.cmd_yum,
        "dnf": system.cmd_yum,
        "perl": system.cmd_perl,
        "python": system.cmd_python,
        "python3": system.cmd_python,
        "nohup": system.cmd_nohup,
        "sudo": system.cmd_sudo,
        "su": system.cmd_sudo,
        "sh": system.cmd_sh,
        "bash": system.cmd_sh,
        "busybox": cmd_busybox,
    }
    return registry


def default_registry() -> dict[str, Handler]:
    """The process-wide command table (built once)."""
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _build()
    return _REGISTRY


#: Well-known binary directories: ``/bin/busybox`` etc. resolve here.
BIN_DIRS = ("/bin", "/sbin", "/usr/bin", "/usr/sbin", "/usr/local/bin")


def resolve_path_command(path: str) -> str | None:
    """Map ``/bin/busybox``-style paths to a registered command name."""
    directory, _, name = path.rpartition("/")
    if directory in BIN_DIRS and name in default_registry():
        return name
    return None
