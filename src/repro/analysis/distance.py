"""Pairwise distance matrices over tokenized sessions."""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from repro import telemetry
from repro.analysis.dld import damerau_levenshtein, dld_bounds
from repro.analysis.tokenizer import DEFAULT_TOKENIZER, TokenizerConfig
from repro.honeypot.session import SessionRecord


#: Cap on tokens per session fed to the distance computation: only a
#: session's behavioural prefix is compared.  The cap shapes the
#: distances, and through them the clustering and every figure built on
#: it, so it is part of the method, not a runtime guard.
MAX_TOKENS_PER_SESSION = 120

#: Distinct (fingerprint, session, cap) entries kept in the
#: tokenization cache.  Sessions are tokenized by several call sites
#: (the clustering, the tokenizer ablation, Figure 14); caching by
#: session id makes the work happen once per session, not once per
#: call site.
TOKEN_CACHE_LIMIT = 250_000

#: Distinct sequence pairs kept in the DLD pair cache.  Figures 5, 6
#: and 14 plus the ablation experiments measure heavily overlapping
#: pair sets; the cache collapses those repeats to dictionary lookups.
PAIR_CACHE_SIZE = 1 << 17

_token_cache: dict[tuple[str, str, int], list[str]] = {}


def clear_distance_caches() -> None:
    """Drop the tokenization and pair caches (tests and benchmarks)."""
    _token_cache.clear()
    _cached_pair_distance.cache_clear()


def session_tokens(
    sessions: list[SessionRecord],
    max_tokens: int = MAX_TOKENS_PER_SESSION,
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> list[list[str]]:
    """Tokenizer-variant (and length-capped) token sequences per session.

    Tokenization is hoisted behind a per-session cache keyed by
    ``(tokenizer fingerprint, session id, cap)``: repeated calls over
    the same sessions (the clustering and every figure that
    re-tokenizes its sample) pay the regex pipeline once, while two
    tokenizer configurations in one process — the normalization
    ablation, a future weighting variant — can never serve each
    other's entries, even without an intervening
    :func:`clear_distance_caches`.  The returned lists are shared with
    the cache — treat them as read-only.
    """
    if len(_token_cache) > TOKEN_CACHE_LIMIT:
        _token_cache.clear()
    fingerprint = tokenizer.fingerprint
    result: list[list[str]] = []
    for session in sessions:
        key = (fingerprint, session.session_id, max_tokens)
        tokens = _token_cache.get(key)
        if tokens is None:
            tokens = tokenizer.tokenize(session)[:max_tokens]
            _token_cache[key] = tokens
        result.append(tokens)
    return result


@lru_cache(maxsize=PAIR_CACHE_SIZE)
def _cached_pair_distance(
    fingerprint: str, a: tuple[str, ...], b: tuple[str, ...]
) -> float:
    lower, upper = dld_bounds(a, b)
    if upper == 0:
        return 0.0
    if lower == upper:
        # The bounds pin the distance (one side is empty): skip the DP.
        return 1.0
    return damerau_levenshtein(a, b) / upper


def pair_distance(
    a: tuple[str, ...],
    b: tuple[str, ...],
    fingerprint: str = DEFAULT_TOKENIZER.fingerprint,
) -> float:
    """Normalized DLD between two token tuples, LRU-cached.

    The cache key is order-canonical (DLD is symmetric), identical
    tuples short-circuit to 0.0, and the length-difference lower bound
    skips the DP whenever it already equals the upper bound.  Entries
    are additionally keyed by the tokenizer fingerprint that produced
    the tuples, so a cache warmed under one tokenizer configuration is
    never consulted by another (the value is a pure function of the
    tuples today, but the keying keeps that an implementation detail
    rather than a cross-config coupling).
    """
    if a == b:
        return 0.0
    if b < a:
        a, b = b, a
    return _cached_pair_distance(fingerprint, a, b)


def distance_matrix(
    token_sequences: list[list[str]],
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> np.ndarray:
    """Symmetric normalized-DLD matrix (zeros on the diagonal).

    Identical token sequences are deduplicated internally so the O(n²)
    DLD work only runs once per distinct behaviour — bot traffic is
    heavily repetitive, which makes this the difference between seconds
    and hours at realistic sample sizes.  Every distinct pair is then
    measured in one serial loop, its value cached under the fingerprint
    of ``tokenizer``, the configuration that produced the sequences.
    """
    with telemetry.span("dld.matrix"):
        keys = [tuple(seq) for seq in token_sequences]
        distinct: list[tuple[str, ...]] = []
        index_of: dict[tuple[str, ...], int] = {}
        for key in keys:
            if key not in index_of:
                index_of[key] = len(distinct)
                distinct.append(key)
        m = len(distinct)
        total_pairs = m * (m - 1) // 2
        registry = telemetry.active()
        if registry is not None:
            registry.count("dld.matrix_builds")
            registry.count("dld.sequences", len(keys))
            registry.count("dld.distinct_sequences", m)
            registry.count("dld.pairs", total_pairs)
        fingerprint = tokenizer.fingerprint
        compact = np.zeros((m, m), dtype=np.float64)
        for i in range(m):
            for j in range(i + 1, m):
                value = pair_distance(distinct[i], distinct[j], fingerprint)
                compact[i, j] = value
                compact[j, i] = value
        mapping = np.array([index_of[key] for key in keys], dtype=np.intp)
        return compact[np.ix_(mapping, mapping)]


def sample_sessions(
    sessions: list[SessionRecord], limit: int, seed: int = 0
) -> list[SessionRecord]:
    """Deterministic uniform sample (the paper clusters a sample too)."""
    if len(sessions) <= limit:
        return list(sessions)
    rng = random.Random(seed)
    return rng.sample(sessions, limit)
