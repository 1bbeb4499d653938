"""Pairwise distance matrices over tokenized sessions."""

from __future__ import annotations

import random

import numpy as np

from repro import telemetry
from repro.analysis.dld import pairwise_dld
from repro.analysis.tokenizer import DEFAULT_TOKENIZER, TokenizerConfig
from repro.honeypot.session import SessionRecord


#: Cap on tokens per session fed to the distance computation: only a
#: session's behavioural prefix is compared.  The cap shapes the
#: distances, and through them the clustering and every figure built on
#: it, so it is part of the method, not a runtime guard.
MAX_TOKENS_PER_SESSION = 120


def session_tokens(
    sessions: list[SessionRecord],
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> list[list[str]]:
    """Each session's token sequence under ``tokenizer``, capped at
    :data:`MAX_TOKENS_PER_SESSION` tokens."""
    return [
        tokenizer.tokenize(session)[:MAX_TOKENS_PER_SESSION]
        for session in sessions
    ]


def distance_matrix(token_sequences: list[list[str]]) -> np.ndarray:
    """Symmetric normalized-DLD matrix (zeros on the diagonal).

    Identical token sequences are deduplicated internally so the O(n²)
    DLD work only runs once per distinct behaviour — bot traffic is
    heavily repetitive, which makes this the difference between seconds
    and hours at realistic sample sizes.  :func:`pairwise_dld` then
    measures every distinct pair in one batch, and each integer
    distance is divided by the pair's longer length.
    """
    with telemetry.span("dld.matrix"):
        index_of: dict[tuple[str, ...], int] = {}
        mapping = np.array(
            [
                index_of.setdefault(tuple(seq), len(index_of))
                for seq in token_sequences
            ],
            dtype=np.intp,
        )
        distinct = list(index_of)
        m = len(distinct)
        registry = telemetry.active()
        if registry is not None:
            registry.count("dld.matrix_builds")
            registry.count("dld.sequences", len(token_sequences))
            registry.count("dld.distinct_sequences", m)
            registry.count("dld.pairs", m * (m - 1) // 2)
        lengths = np.array([len(seq) for seq in distinct], dtype=np.int64)
        longest = np.maximum(np.maximum.outer(lengths, lengths), 1)
        compact = pairwise_dld(distinct) / longest
        return compact[np.ix_(mapping, mapping)]


def sample_rows(n: int, limit: int, seed: int = 0) -> list[int]:
    """Deterministic uniform sample of ``limit`` positions out of ``n``.

    ``random.Random.sample`` draws positions alone, so the rows picked
    here are the positions :func:`sample_sessions` picks from ``n``
    sessions.
    """
    if n <= limit:
        return list(range(n))
    return random.Random(seed).sample(range(n), limit)


def sample_sessions(
    sessions: list[SessionRecord], limit: int, seed: int = 0
) -> list[SessionRecord]:
    """Deterministic uniform sample (the paper clusters a sample too)."""
    return [sessions[row] for row in sample_rows(len(sessions), limit, seed)]
