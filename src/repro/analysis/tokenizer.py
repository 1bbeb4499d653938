"""Session-command tokenization for the clustering pipeline (section 6).

Commands are split into meaningful tokens (command words, arguments,
paths); each token is later treated as a single symbol by the
Damerau-Levenshtein distance, which makes the similarity robust to
obfuscation that only swaps IPs, filenames or directory names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.honeypot.session import SessionRecord

#: Separators between tokens: whitespace and shell operators.
_SPLIT_PATTERN = re.compile(r"[\s;|&<>()]+")

#: Long opaque blobs (base64 payloads, hex strings) are collapsed to a
#: placeholder so payload length does not dominate the distance.
_OPAQUE_PATTERN = re.compile(r"^[A-Za-z0-9+/=\\x]{24,}$")

#: Credential-rotation arguments ("root:<random>") — volatile per
#: session, so masked for clustering robustness.
_CRED_PATTERN = re.compile(r"^\"?root:[A-Za-z0-9]{6,}\"?$")


def tokenize_text(text: str) -> list[str]:
    """Split one command string into its token sequence."""
    tokens: list[str] = []
    for raw in _SPLIT_PATTERN.split(text):
        token = raw.strip("'\"")
        if not token:
            continue
        if _OPAQUE_PATTERN.match(token):
            tokens.append("<blob>")
        else:
            tokens.append(token)
    return tokens


def tokenize_session(session: SessionRecord) -> list[str]:
    """Token sequence of all commands in a session, in order."""
    tokens: list[str] = []
    for record in session.commands:
        tokens.extend(tokenize_text(record.raw))
    return tokens


@dataclass(frozen=True)
class TokenizerConfig:
    """Which tokenization variant produced a token sequence.

    Attributes:
        normalize: apply :func:`normalize_tokens` volatile-token
            masking (the paper's robustness step).  The ablation's
            "raw tokens" variant turns this off.
    """

    normalize: bool = False

    def tokenize(self, session: SessionRecord) -> list[str]:
        """This variant's token sequence for one session."""
        tokens = tokenize_session(session)
        if self.normalize:
            return normalize_tokens(tokens)
        return tokens


#: The paper's tokenization: split, mask opaque blobs, normalize
#: volatile tokens.  This is what the clustering pipeline uses.
DEFAULT_TOKENIZER = TokenizerConfig(normalize=True)

#: The ablation's raw variant: split and blob-mask only.
RAW_TOKENIZER = TokenizerConfig(normalize=False)


def normalize_tokens(tokens: list[str]) -> list[str]:
    """Map volatile tokens (IPs, URLs, random names) to stable classes.

    This is the robustness step the paper describes: two sessions that
    differ only in download host or dropped filename should be nearly
    identical after normalization.
    """
    normalized: list[str] = []
    for token in tokens:
        if re.match(r"^(?:\d{1,3}\.){3}\d{1,3}(?::\d+)?$", token):
            normalized.append("<ip>")
        elif "://" in token:
            normalized.append("<url>")
        elif _CRED_PATTERN.match(token):
            normalized.append("<cred>")
        else:
            normalized.append(token)
    return normalized
