"""Chunked, multiprocessing-backed pairwise DLD computation.

The clustering pipeline needs the full symmetric normalized-DLD matrix
over the *distinct* token sequences — m·(m-1)/2 independent pair
computations, each a pure function of its two sequences.  This module
linearizes the upper triangle into one index space, slices it into
balanced chunks, and evaluates the chunks on a process pool.  Because
every pair is computed by the same pure function the serial path uses
(:func:`repro.analysis.distance.pair_distance`), the assembled matrix
is identical to the serial one, bit for bit.

Workers receive the distinct sequences once (via the pool initializer),
not per chunk, so the IPC cost is O(m + chunks), not O(pairs).
"""

from __future__ import annotations

import multiprocessing
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import telemetry

#: Pairs below this threshold are not worth a process pool: the fork +
#: pickle overhead exceeds the pair work.  Callers fall back to serial.
#: Sized from 2-worker measurements on a 2-CPU host (command-session
#: samples at scale 1e-4, best of 5): 0.86-0.97x at ~4,700 pairs,
#: 0.98-1.18x at 6,800-7,750 and 1.20-1.32x at 9,200-12,200.
MIN_PAIRS_FOR_POOL = 8_000

#: Chunks per worker: more chunks smooth the skew between cheap pairs
#: (short scout sequences) and expensive ones (long loader chains).
CHUNKS_PER_WORKER = 4

_SEQUENCES: list[tuple[str, ...]] | None = None
_ROW_OFFSETS: list[int] | None = None
_FINGERPRINT: str | None = None
_PAIRS: np.ndarray | None = None


def pool_context() -> multiprocessing.context.BaseContext:
    """The cheapest start method available (fork where supported)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def row_offsets(m: int) -> list[int]:
    """Linear index of the first pair of each row of the upper triangle.

    Row ``i`` holds the pairs ``(i, i+1) .. (i, m-1)``; its first pair
    has linear index ``offsets[i]``.  A trailing sentinel equal to the
    total pair count makes bisection safe for the last row.
    """
    offsets = [0] * (m + 1)
    for i in range(m):
        offsets[i + 1] = offsets[i] + (m - 1 - i)
    return offsets


def pair_at(k: int, offsets: list[int]) -> tuple[int, int]:
    """Map a linear upper-triangle index back to its ``(i, j)`` pair."""
    i = bisect_right(offsets, k) - 1
    return i, i + 1 + (k - offsets[i])


def _init_pool(sequences: list[tuple[str, ...]], fingerprint: str) -> None:
    global _SEQUENCES, _ROW_OFFSETS, _FINGERPRINT
    _SEQUENCES = sequences
    _ROW_OFFSETS = row_offsets(len(sequences))
    _FINGERPRINT = fingerprint


def _distance_chunk(span: tuple[int, int]) -> tuple[int, list[float]]:
    """Compute normalized DLD for one linear range of pairs."""
    from repro.analysis.distance import pair_distance

    start, stop = span
    sequences = _SEQUENCES
    offsets = _ROW_OFFSETS
    i, j = pair_at(start, offsets)
    m = len(sequences)
    values: list[float] = []
    for _ in range(stop - start):
        values.append(pair_distance(sequences[i], sequences[j], _FINGERPRINT))
        j += 1
        if j == m:
            i += 1
            j = i + 1
    return start, values


def _init_candidate_pool(
    sequences: list[tuple[str, ...]], pairs: np.ndarray, fingerprint: str
) -> None:
    global _SEQUENCES, _PAIRS, _FINGERPRINT
    _SEQUENCES = sequences
    _PAIRS = pairs
    _FINGERPRINT = fingerprint


def _candidate_chunk(span: tuple[int, int]) -> tuple[int, list[float]]:
    """Compute normalized DLD for one slice of the candidate-pair list."""
    from repro.analysis.distance import pair_distance

    start, stop = span
    sequences = _SEQUENCES
    pairs = _PAIRS
    values: list[float] = []
    for k in range(start, stop):
        i = int(pairs[k, 0])
        j = int(pairs[k, 1])
        values.append(pair_distance(sequences[i], sequences[j], _FINGERPRINT))
    return start, values


def chunk_spans(total_pairs: int, chunk_count: int) -> list[tuple[int, int]]:
    """Slice ``range(total_pairs)`` into at most ``chunk_count`` spans."""
    if total_pairs <= 0:
        return []
    chunk_count = max(1, min(chunk_count, total_pairs))
    base, extra = divmod(total_pairs, chunk_count)
    spans: list[tuple[int, int]] = []
    cursor = 0
    for index in range(chunk_count):
        length = base + (1 if index < extra else 0)
        spans.append((cursor, cursor + length))
        cursor += length
    return spans


def compact_distance_matrix_parallel(
    distinct: list[tuple[str, ...]],
    workers: int,
    fingerprint: str | None = None,
) -> np.ndarray:
    """The m×m compact matrix over distinct sequences, chunked over a pool."""
    from repro.analysis.tokenizer import DEFAULT_TOKENIZER

    if fingerprint is None:
        fingerprint = DEFAULT_TOKENIZER.fingerprint
    m = len(distinct)
    total_pairs = m * (m - 1) // 2
    compact = np.zeros((m, m), dtype=np.float64)
    if total_pairs == 0:
        return compact
    offsets = row_offsets(m)
    spans = chunk_spans(total_pairs, workers * CHUNKS_PER_WORKER)
    telemetry.count("parallel.dld.chunks", len(spans))
    flat = np.zeros(total_pairs, dtype=np.float64)
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=pool_context(),
        initializer=_init_pool,
        initargs=(distinct, fingerprint),
    ) as pool:
        for start, values in pool.map(_distance_chunk, spans):
            flat[start : start + len(values)] = values
    cursor = 0
    for i in range(m):
        row = flat[offsets[i] : offsets[i + 1]]
        compact[i, i + 1 :] = row
        compact[i + 1 :, i] = row
        cursor += len(row)
    return compact


def candidate_values_parallel(
    distinct: list[tuple[str, ...]],
    pairs: np.ndarray,
    workers: int,
    fingerprint: str | None = None,
) -> np.ndarray:
    """Normalized DLD for an explicit ``(k, 2)`` pair-index array.

    The sketch prefilter (:mod:`repro.analysis.sketch`) produces a
    sparse candidate set rather than the full upper triangle, so the
    pair list is shipped to the pool as one compact int32 array in the
    initializer — the per-chunk IPC stays two integers, exactly like
    the dense path.  Values come back in pair-list order.
    """
    from repro.analysis.tokenizer import DEFAULT_TOKENIZER

    if fingerprint is None:
        fingerprint = DEFAULT_TOKENIZER.fingerprint
    total = len(pairs)
    values = np.zeros(total, dtype=np.float64)
    if total == 0:
        return values
    pairs = np.ascontiguousarray(pairs, dtype=np.int32)
    spans = chunk_spans(total, workers * CHUNKS_PER_WORKER)
    telemetry.count("parallel.dld.candidate_chunks", len(spans))
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=pool_context(),
        initializer=_init_candidate_pool,
        initargs=(distinct, pairs, fingerprint),
    ) as pool:
        for start, chunk in pool.map(_candidate_chunk, spans):
            values[start : start + len(chunk)] = chunk
    return values
