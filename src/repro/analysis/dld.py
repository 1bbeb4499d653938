"""Damerau-Levenshtein distance over token sequences, every pair at once.

Implements the restricted (optimal-string-alignment) Damerau-
Levenshtein distance with each *token* treated as one symbol, as the
paper specifies: "mkdir /tmp" vs "cd /tmp" has distance 1.

The kernel is bit-parallel: Myers' (1999) bit-vector edit distance as
extended with adjacent transpositions by Hyyrö (2003), "A bit-vector
algorithm for computing Levenshtein and Damerau edit distances", run
on every pair of a batch in one numpy step per token position.  Tokens
are interned to integer ids, and each sequence gets one bitmask per
token id, with bit ``i`` set where that token sits at position ``i``.
A mask is ``W = ceil(longest / 64)`` 64-bit words, word 0 the lowest,
and the addition and the left shift carry across words.  Each pair
keeps the longer of its two sequences as the bit vector and walks the
shorter one: a DP column is held as two masks of its vertical +1 and
-1 deltas, and each step gathers the pair's match mask for the next
token and advances the column with about two dozen array operations.
The distance is tracked in the longer side's last row.  Pairs are
ordered by their shorter length, longest first, so the pairs still
walking are always a prefix, and a pair's distance stops changing once
its shorter side ends.  Every mask is cut back to one bit per position
of the pair's longer sequence, so neither ``~`` nor a carry leaks into
higher bits.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_ONE = np.uint64(1)
_TOP = np.uint64(63)


def _shift_up(x: np.ndarray) -> np.ndarray:
    """``x << 1`` over each row's words."""
    out = x << _ONE
    out[:, 1:] |= x[:, :-1] >> _TOP
    return out


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x + y`` over each row's words (the carry out of the top is lost)."""
    total = x + y
    carry = total < x
    for word in range(1, total.shape[1]):
        total[:, word] += carry[:, word - 1]
        carry[:, word] |= total[:, word] < carry[:, word - 1]
    return total


def pairwise_dld(sequences: Sequence[Sequence[str]]) -> np.ndarray:
    """Integer DLD of every pair of ``sequences`` as a symmetric matrix."""
    count = len(sequences)
    matrix = np.zeros((count, count), dtype=np.int64)
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    if count < 2 or not lengths.any():
        return matrix
    longest = int(lengths.max())
    words = (longest + 63) // 64
    ids: dict[str, int] = {}
    padded = np.zeros((count, longest), dtype=np.intp)
    for row, seq in enumerate(sequences):
        padded[row, : len(seq)] = [ids.setdefault(token, len(ids)) for token in seq]
    rows, positions = np.nonzero(np.arange(longest) < lengths[:, None])
    masks = np.zeros((count, len(ids), words), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (rows, padded[rows, positions], positions // 64),
        _ONE << (positions % 64).astype(np.uint64),
    )

    first, second = np.triu_indices(count, 1)
    swap = lengths[first] < lengths[second]
    longer = np.where(swap, second, first)
    shorter = np.where(swap, first, second)
    order = np.argsort(-lengths[shorter], kind="stable")
    longer, shorter = longer[order], shorter[order]
    size = lengths[longer]
    steps = lengths[shorter]
    active = len(order) - np.cumsum(np.bincount(steps, minlength=steps[0] + 1))

    bits = np.clip(size[:, None] - 64 * np.arange(words), 0, 64).astype(np.uint64)
    full = np.where(bits == 64, ~np.uint64(0), (_ONE << bits) - _ONE)
    # The longer side's last position: the flat index of its word in a
    # (pairs, words) array, and its bit in that word.
    last = np.maximum(size - 1, 0)
    last_word = np.arange(len(order)) * words + last // 64
    last_bit = _ONE << (last % 64).astype(np.uint64)

    # Column 0 of the DP is 0, 1, ..., len: every vertical delta +1.
    plus_v = full.copy()
    minus_v = np.zeros_like(full)
    diagonal_zero = np.zeros_like(full)
    previous_match = np.zeros_like(full)
    distance = size.copy()
    for step in range(int(steps[0])):
        k = active[step]
        plus_v, minus_v, full = plus_v[:k], minus_v[:k], full[:k]
        diagonal_zero, previous_match = diagonal_zero[:k], previous_match[:k]
        match = masks[longer[:k], padded[shorter[:k], step]]
        transposition = _shift_up(~diagonal_zero & match) & previous_match
        diagonal_zero = (
            (_add(match & plus_v, plus_v) ^ plus_v)
            | match
            | minus_v
            | transposition
        ) & full
        plus_h = minus_v | (~(diagonal_zero | plus_v) & full)
        minus_h = diagonal_zero & plus_v
        rises = (plus_h.reshape(-1)[last_word[:k]] & last_bit[:k]) != 0
        falls = (minus_h.reshape(-1)[last_word[:k]] & last_bit[:k]) != 0
        distance[:k] += rises.astype(np.int64) - falls
        # Row 0 is 0, 1, ..., len(shorter): its horizontal delta is +1.
        plus_h = _shift_up(plus_h)
        plus_h[:, 0] |= _ONE
        plus_v = (_shift_up(minus_h) | ~(diagonal_zero | plus_h)) & full
        minus_v = diagonal_zero & plus_h
        previous_match = match

    matrix[first[order], second[order]] = distance
    matrix[second[order], first[order]] = distance
    return matrix
