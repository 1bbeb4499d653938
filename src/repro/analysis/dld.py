"""Damerau-Levenshtein distance over token sequences.

Implements the restricted (optimal-string-alignment) Damerau-
Levenshtein distance with each *token* treated as one symbol, as the
paper specifies: "mkdir /tmp" vs "cd /tmp" has distance 1.

The kernel is bit-parallel: Myers' (1999) bit-vector edit distance as
extended with adjacent transpositions by Hyyrö (2003), "A bit-vector
algorithm for computing Levenshtein and Damerau edit distances".  The
longer sequence becomes a table of bitmasks, one per distinct token,
with bit ``i`` set where that token sits at position ``i``.  The DP
matrix is then advanced one whole column per token of the shorter
sequence: a column is held as two bitmasks of its vertical +1 and -1
deltas, and each step is about two dozen integer operations on masks
as wide as the longer sequence.  The distance is tracked in the
last row.  Python ints are arbitrary-precision, so any length works;
every mask is cut back to one bit per position of the longer sequence,
so neither ``~`` nor the carry of the addition leaks into higher bits.
"""

from __future__ import annotations

from typing import Sequence


def dld_bounds(a: Sequence[str], b: Sequence[str]) -> tuple[int, int]:
    """Cheap ``(lower, upper)`` bounds on the token-level DLD.

    Every edit changes the length by at most one and no alignment needs
    more edits than replacing the shorter sequence wholesale, so

        ``|len(a) - len(b)|  <=  DLD(a, b)  <=  max(len(a), len(b))``.

    When the bounds coincide (one sequence is empty) the distance is
    pinned without running the kernel — the early exit the pairwise
    matrix uses.
    """
    len_a, len_b = len(a), len(b)
    return abs(len_a - len_b), max(len_a, len_b)


def damerau_levenshtein(a: Sequence[str], b: Sequence[str]) -> int:
    """Token-level DLD (substitution, insertion, deletion, transposition)."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    masks: dict[str, int] = {}
    bit = 1
    for token in a:
        masks[token] = masks.get(token, 0) | bit
        bit <<= 1
    full = bit - 1
    last_row = bit >> 1
    # Column 0 of the DP is 0, 1, ..., len(a): every vertical delta +1.
    plus_v, minus_v = full, 0
    diagonal_zero = 0
    previous_match = 0
    distance = len(a)
    lookup = masks.get
    for token in b:
        match = lookup(token, 0)
        transposition = ((~diagonal_zero & match) << 1) & previous_match
        diagonal_zero = (
            ((((match & plus_v) + plus_v) ^ plus_v) | match | minus_v)
            | transposition
        ) & full
        plus_h = minus_v | (~(diagonal_zero | plus_v) & full)
        minus_h = diagonal_zero & plus_v
        if plus_h & last_row:
            distance += 1
        elif minus_h & last_row:
            distance -= 1
        # Row 0 is 0, 1, ..., len(b): its horizontal delta is always +1.
        plus_h = (plus_h << 1) | 1
        plus_v = ((minus_h << 1) | ~(diagonal_zero | plus_h)) & full
        minus_v = diagonal_zero & plus_h
        previous_match = match
    return distance


def normalized_dld(a: Sequence[str], b: Sequence[str]) -> float:
    """DLD divided by the longer sequence length (0 = identical)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return damerau_levenshtein(a, b) / longest
