"""URI extraction — "if a command includes a URI ... it is recorded"."""

from __future__ import annotations

import re
from functools import lru_cache

#: Schemes the honeynet records (paper section 3.2 lists (S)FTP, HTTP(S),
#: and anything else retrieved from a remote target).
_URI_PATTERN = re.compile(
    r"\b(?:https?|ftp|tftp|sftp)://[^\s;|&'\"<>]+", re.IGNORECASE
)


def extract_uris(text: str) -> list[str]:
    """Return every URI literally present in ``text`` (in order).

    The shell engine calls this on every raw input line, so the scan is
    memoized by text with the same bound as the shell parse
    (``PARSE_CACHE_SIZE``); the list returned is a fresh copy.
    """
    return list(_scan(text))


@lru_cache(maxsize=256)
def _scan(text: str) -> tuple[str, ...]:
    return tuple(
        match.group(0).rstrip(".,)") for match in _URI_PATTERN.finditer(text)
    )
