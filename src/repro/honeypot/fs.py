"""The fake filesystem behind the emulated shell.

Cowrie presents a plausible Unix filesystem but persists nothing across
sessions; each session gets a fresh copy (the paper notes attackers
exploit exactly this statelessness, e.g. by writing a file and checking
for it in a later session).  Files carry content so the honeypot can
hash whatever the intruder writes or downloads.

A filesystem changes only through its methods, and each method that
changes it extends :attr:`FakeFilesystem.fingerprint`, a SHA-256 hash
chain over the changes made since the skeleton.  Two filesystems with
the same fingerprint therefore hold the same files and directories,
which is what lets the honeypot reuse the result of a read-only line.
"""

from __future__ import annotations

import hashlib
import posixpath
from dataclasses import dataclass, replace
from functools import cached_property

from repro.util.hashing import sha256_hex


@dataclass(frozen=True)
class FileNode:
    """One regular file.

    Frozen, so nodes can be shared between filesystems (the skeleton's
    are) and no handler can change one behind the fingerprint's back:
    a write or ``chmod`` replaces the node.
    """

    content: bytes = b""
    executable: bool = False

    @cached_property
    def sha256(self) -> str:
        return sha256_hex(self.content)

    @property
    def size(self) -> int:
        return len(self.content)


#: Files every fresh session sees (a representative Cowrie skeleton).
BASELINE_FILES: dict[str, bytes] = {
    "/etc/passwd": b"root:x:0:0:root:/root:/bin/bash\nphil:x:1000:1000::/home/phil:/bin/bash\n",
    "/etc/shadow": b"root:$6$deadbeef$:18000:0:99999:7:::\n",
    "/etc/hosts": b"127.0.0.1 localhost\n",
    "/etc/hosts.deny": b"",
    "/etc/issue": b"Debian GNU/Linux 10 \\n \\l\n",
    "/proc/cpuinfo": (
        b"processor\t: 0\nmodel name\t: Intel(R) Xeon(R) CPU E5-2650 v4 @ 2.20GHz\n"
        b"processor\t: 1\nmodel name\t: Intel(R) Xeon(R) CPU E5-2650 v4 @ 2.20GHz\n"
    ),
    "/proc/meminfo": b"MemTotal:        2048000 kB\nMemFree:          812000 kB\n",
    "/proc/self/exe": b"\x7fELF\x02\x01\x01busybox-emulated",
    "/bin/busybox": b"\x7fELF\x02\x01\x01busybox-emulated",
    "/var/spool/cron/root": b"",
    "/root/.ssh/authorized_keys": b"",
}

#: Directories that exist in the skeleton.
BASELINE_DIRS = (
    "/", "/bin", "/sbin", "/etc", "/usr", "/usr/bin", "/var", "/var/run",
    "/var/spool", "/var/spool/cron", "/var/tmp", "/tmp", "/mnt", "/proc",
    "/proc/self", "/root", "/root/.ssh", "/home", "/home/phil", "/dev",
)

#: The skeleton's nodes, built once: every fresh filesystem copies this
#: dict, and the frozen nodes themselves are shared.
_SKELETON: dict[str, FileNode] = {
    path: FileNode(content=content, executable=path.startswith("/bin"))
    for path, content in BASELINE_FILES.items()
}

#: The fingerprint of an unchanged skeleton.
PRISTINE = bytes(32)


class FakeFilesystem:
    """An in-memory Unix-ish filesystem with the Cowrie skeleton."""

    def __init__(self) -> None:
        self._files: dict[str, FileNode] = dict(_SKELETON)
        self._dirs: set[str] = set(BASELINE_DIRS)
        self.fingerprint = PRISTINE

    def _changed(self, op: str, path: str, detail: str = "") -> None:
        """Extend the fingerprint chain by one effective change."""
        self.fingerprint = hashlib.sha256(
            self.fingerprint + repr((op, path, detail)).encode()
        ).digest()

    @staticmethod
    def normalize(path: str, cwd: str = "/") -> str:
        """Resolve a possibly relative path against ``cwd``."""
        if path.startswith("~"):
            path = "/root" + path[1:]
        if not path.startswith("/"):
            path = posixpath.join(cwd, path)
        normalized = posixpath.normpath(path)
        return normalized if normalized.startswith("/") else "/" + normalized

    def exists(self, path: str) -> bool:
        return path in self._files or path in self._dirs

    def is_file(self, path: str) -> bool:
        return path in self._files

    def is_dir(self, path: str) -> bool:
        return path in self._dirs

    def read(self, path: str) -> bytes | None:
        node = self._files.get(path)
        return None if node is None else node.content

    def get(self, path: str) -> FileNode | None:
        return self._files.get(path)

    def write(self, path: str, content: bytes, append: bool = False) -> tuple[FileNode, bool]:
        """Write a file; returns ``(node, created)``."""
        parent = posixpath.dirname(path) or "/"
        self.mkdirs(parent)
        existing = self._files.get(path)
        if existing is None:
            node = FileNode(content=content)
        elif append:
            node = replace(existing, content=existing.content + content)
        else:
            node = replace(existing, content=content)
        self._files[path] = node
        self._changed("write", path, node.sha256)
        return node, existing is None

    def delete(self, path: str) -> bool:
        """Remove a file; returns whether it existed."""
        if self._files.pop(path, None) is None:
            return False
        self._changed("delete", path)
        return True

    def delete_tree(self, path: str) -> list[str]:
        """Remove a directory tree (``rm -rf``); returns deleted files."""
        prefix = path.rstrip("/") + "/"
        doomed = [p for p in self._files if p == path or p.startswith(prefix)]
        for victim in doomed:
            del self._files[victim]
        kept = {
            d for d in self._dirs if not (d != "/" and (d == path or d.startswith(prefix)))
        }
        if doomed or len(kept) != len(self._dirs):
            self._dirs = kept
            self._changed("delete_tree", path)
        return doomed

    def mkdirs(self, path: str) -> None:
        """Create a directory and its ancestors."""
        before = len(self._dirs)
        cursor = path
        while cursor and cursor != "/":
            self._dirs.add(cursor)
            cursor = posixpath.dirname(cursor)
        self._dirs.add("/")
        if len(self._dirs) != before:
            self._changed("mkdirs", path)

    def chmod_exec(self, path: str) -> bool:
        node = self._files.get(path)
        if node is None:
            return False
        if not node.executable:
            self._files[path] = replace(node, executable=True)
            self._changed("chmod", path)
        return True

    def listdir(self, path: str) -> list[str]:
        """Entries directly under a directory."""
        prefix = path.rstrip("/") + "/" if path != "/" else "/"
        names: set[str] = set()
        for candidate in list(self._files) + list(self._dirs):
            if candidate != path and candidate.startswith(prefix):
                remainder = candidate[len(prefix):]
                names.add(remainder.split("/", 1)[0])
        return sorted(names)
