"""Deterministic process pool for the pairwise DLD matrix.

:func:`repro.parallel.distance.compact_distance_matrix_parallel` is the
chunked pair pool behind ``distance_matrix(..., workers=N)``; the
assembled matrix is bit-identical to the serial one (pinned by
``tests/test_clustering.py`` and ``tests/test_cluster_differential.py``).
The simulation day loop is serial: see ``docs/parallelism.md`` for the
measurements that retired the sharded engine.
"""

from repro.parallel.distance import (
    chunk_spans,
    compact_distance_matrix_parallel,
    pair_at,
    row_offsets,
)

__all__ = [
    "chunk_spans",
    "compact_distance_matrix_parallel",
    "pair_at",
    "row_offsets",
]
