"""Per-session shell state shared by all command handlers."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.honeypot.fs import FakeFilesystem
from repro.honeypot.session import FileEvent, FileOp


@dataclass(frozen=True)
class HostProfile:
    """Identity the emulated host presents (uname, hostname, ...)."""

    hostname: str = "svr04"
    kernel_name: str = "Linux"
    kernel_release: str = "4.19.0-21-amd64"
    kernel_version: str = "#1 SMP Debian 4.19.249-2 (2022-06-30)"
    machine: str = "x86_64"
    hardware_platform: str = "GNU/Linux"
    cpus: int = 2
    mem_total_kb: int = 2_048_000


@dataclass
class CommandResult:
    """Outcome of one simple command."""

    output: str = ""
    success: bool = True
    known: bool = True


class ShellContext:
    """Mutable state of one interactive session.

    Command handlers read/write the filesystem, record URIs and file
    events, and ask :meth:`fetch` for the content the outside world
    would serve the honeypot for a given URL during this session.

    Two inputs belong to the session alone: ``remote_files`` and the
    ``entropy`` behind ``/dev/urandom``.  Handlers reach them only
    through :meth:`fetch` and :meth:`random_bytes`, which set
    ``session_bound``, so the honeypot knows a line's result cannot be
    reused by another session.
    """

    def __init__(
        self,
        fs: FakeFilesystem | None = None,
        profile: HostProfile | None = None,
        user: str = "root",
        remote_files: dict[str, bytes] | None = None,
        entropy: str = "",
    ) -> None:
        self.fs = fs or FakeFilesystem()
        self.entropy = entropy  # per-session seed for /dev/urandom reads
        self.profile = profile or HostProfile()
        self.user = user
        self.cwd = "/root" if user == "root" else f"/home/{user}"
        self.env: dict[str, str] = {
            "HOME": self.cwd,
            "SHELL": "/bin/bash",
            "PATH": "/usr/local/bin:/usr/bin:/bin",
            "USER": user,
        }
        self.remote_files = dict(remote_files or {})
        self.uris: list[str] = []
        self.file_events: list[FileEvent] = []
        self.root_password: str | None = None
        self.exited = False
        self.session_bound = False

    def fetch(self, url: str) -> bytes | None:
        """What the network returns for ``url`` during this session."""
        self.session_bound = True
        return self.remote_files.get(url)

    def random_bytes(self, source: str, destination: str | None) -> bytes:
        """This session's reproducible read of a random device."""
        self.session_bound = True
        return hashlib.sha256(
            f"{self.entropy}:{source}:{destination}".encode("utf-8")
        ).digest()

    def resolve(self, path: str) -> str:
        """Resolve a path against the current working directory."""
        return self.fs.normalize(path, self.cwd)

    def record_uri(self, uri: str) -> None:
        """Record a URI exactly once per session occurrence."""
        self.uris.append(uri)

    def record_event(
        self, path: str, op: FileOp, sha256: str | None, source: str = "shell"
    ) -> None:
        self.file_events.append(
            FileEvent(path=path, op=op, sha256=sha256, source=source)
        )

    def write_file(
        self,
        path: str,
        content: bytes,
        append: bool = False,
        source: str = "shell",
    ) -> None:
        """Write through to the fs and record the create/modify event."""
        resolved = self.resolve(path)
        if resolved.startswith("/dev/"):
            return
        node, created = self.fs.write(resolved, content, append=append)
        op = FileOp.CREATE if created else FileOp.MODIFY
        self.record_event(resolved, op, node.sha256, source=source)

    def delete_file(self, path: str) -> bool:
        """Delete through to the fs, recording the event if it existed."""
        resolved = self.resolve(path)
        if self.fs.delete(resolved):
            self.record_event(resolved, FileOp.DELETE, None)
            return True
        return False

    def execute_file(self, path: str) -> CommandResult:
        """Record an attempt to execute ``path`` (the fig. 4 signal)."""
        resolved = self.resolve(path)
        node = self.fs.get(resolved)
        if node is None:
            self.record_event(resolved, FileOp.EXECUTE_MISSING, None)
            return CommandResult(
                output=f"-bash: {path}: No such file or directory",
                success=False,
                known=True,
            )
        self.record_event(resolved, FileOp.EXECUTE, node.sha256)
        return CommandResult(output="", success=True, known=True)

    def expand(self, token: str) -> str:
        """Expand ``$VAR`` / ``${VAR}`` occurrences from the environment."""
        if "$" not in token:
            return token
        result: list[str] = []
        index = 0
        while index < len(token):
            char = token[index]
            if char != "$":
                result.append(char)
                index += 1
                continue
            rest = token[index + 1 :]
            if rest.startswith("{"):
                closing = rest.find("}")
                if closing > 0:
                    name = rest[1:closing]
                    result.append(self.env.get(name, ""))
                    index += closing + 2
                    continue
            name_chars = []
            for candidate in rest:
                if candidate.isalnum() or candidate == "_":
                    name_chars.append(candidate)
                else:
                    break
            if name_chars:
                name = "".join(name_chars)
                result.append(self.env.get(name, ""))
                index += len(name) + 1
            else:
                result.append("$")
                index += 1
        return "".join(result)
