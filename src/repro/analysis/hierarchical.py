"""Baseline comparator: agglomerative clustering on the DLD matrix.

The paper clusters with K-Means over the token-DLD distance matrix; the
natural alternative for a precomputed distance matrix is hierarchical
agglomerative clustering.  This module provides that baseline (average,
complete and single linkage) so the choice can be evaluated as an
ablation (``ext_baseline_clustering``).

Normalized token-DLD values repeat a lot, so most merges tie with
another.  The algorithms are therefore scipy's (1.17,
``cluster/_hierarchy.pyx``) step for step, not just its linkage
definitions, so that every tie breaks the same way: the
nearest-neighbour chain for average and complete linkage, Prim's
minimum spanning tree for single linkage, and a stable sort of the
merges by height.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.kmedoids import ClusteringResult

METHODS = ("average", "complete", "single")


def linkage(
    matrix: np.ndarray, method: str = "average"
) -> tuple[np.ndarray, np.ndarray]:
    """Agglomerate ``matrix`` into a merge list, sorted by height.

    Returns ``(pairs, heights)``: merge ``m`` joins the clusters holding
    points ``pairs[m, 0]`` and ``pairs[m, 1]`` at distance
    ``heights[m]``.  The heights equal column 2 of scipy's ``linkage``
    bit for bit.  Only the upper triangle is read, as scipy's
    ``squareform(matrix, checks=False)`` does.
    """
    if method not in METHODS:
        raise ValueError(f"unsupported linkage method: {method!r}")
    upper = np.triu(np.asarray(matrix, dtype=float), 1)
    if not np.isfinite(upper).all():
        raise ValueError("distance matrix must contain only finite values")
    dist = upper + upper.T
    if method == "single":
        pairs, heights = _prim(dist)
    else:
        pairs, heights = _nn_chain(dist, method)
    order = np.argsort(heights, kind="stable")
    return pairs[order], heights[order]


def _nn_chain(dist: np.ndarray, method: str) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-neighbour chain (scipy's ``nn_chain``).

    A scan walks the live slots in index order and moves only on a
    strictly smaller distance, preferring the previous chain element,
    so ties go to it and then to the lowest index.  Dead slots and the
    diagonal hold ``inf`` and are never picked.
    """
    n = len(dist)
    dist = dist.copy()
    np.fill_diagonal(dist, np.inf)
    size = np.ones(n, dtype=np.int64)
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    heights = np.empty(n - 1)
    chain: list[int] = []
    for step in range(n - 1):
        if not chain:
            chain.append(int(np.flatnonzero(size)[0]))
        while True:
            x = chain[-1]
            y = int(dist[x].argmin())
            height = dist[x, y]
            if len(chain) > 1 and not height < dist[x, chain[-2]]:
                y = chain[-2]
                height = dist[x, y]
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = int(size[x]), int(size[y])
        pairs[step] = x, y
        heights[step] = height
        # Lance-Williams update in scipy's float expressions; the merged
        # cluster keeps slot y.  An inf operand keeps the diagonal and
        # the dead slots at inf.
        if method == "average":
            merged = (nx * dist[x] + ny * dist[y]) / (nx + ny)
        else:
            merged = np.maximum(dist[x], dist[y])
        dist[y] = merged
        dist[:, y] = merged
        dist[x] = np.inf
        dist[:, x] = np.inf
        size[x] = 0
        size[y] = nx + ny
    return pairs, heights


def _prim(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum spanning tree grown from point 0 (scipy's ``mst_single_linkage``).

    Each step adds the closest point outside the tree; ties go to the
    lowest index.
    """
    n = len(dist)
    pairs = np.empty((n - 1, 2), dtype=np.intp)
    heights = np.empty(n - 1)
    in_tree = np.zeros(n, dtype=bool)
    closest = np.full(n, np.inf)
    x = 0
    for step in range(n - 1):
        in_tree[x] = True
        np.minimum(closest, dist[x], out=closest)
        candidates = np.where(in_tree, np.inf, closest)
        y = int(candidates.argmin())
        pairs[step] = x, y
        heights[step] = candidates[y]
        x = y
    return pairs, heights


def cut(pairs: np.ndarray, heights: np.ndarray, k: int) -> np.ndarray:
    """Flat labels for at most ``k`` clusters (scipy's ``maxclust``).

    Applies every merge whose height is at most the (n-k)-th smallest
    height, and none when ``k >= n``; tied merges go in together, so
    ties can leave fewer than ``k`` clusters.  Labels number the
    clusters by their smallest member.
    """
    n = len(pairs) + 1
    applied = 0
    if k < n:
        applied = int(np.searchsorted(heights, heights[n - k - 1], side="right"))
    smallest = np.arange(n)
    for x, y in pairs[:applied].tolist():
        low, high = sorted((smallest[x], smallest[y]))
        smallest[smallest == high] = low
    return np.unique(smallest, return_inverse=True)[1]


def hierarchical_cluster(
    matrix: np.ndarray, k: int, method: str = "average"
) -> ClusteringResult:
    """Agglomerative clustering into at most ``k`` clusters.

    Returns the same :class:`ClusteringResult` shape as K-medoids; the
    "medoid" of each cluster is its minimum-total-distance member, and
    the inertia is computed identically so the two methods compare
    directly.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    labels = cut(*linkage(matrix, method), k)
    medoids: list[int] = []
    for cluster in range(int(labels.max()) + 1):
        members = np.flatnonzero(labels == cluster)
        sub = matrix[np.ix_(members, members)]
        medoids.append(int(members[int(np.argmin(sub.sum(axis=1)))]))
    distances = matrix[np.arange(n), np.array(medoids)[labels]]
    return ClusteringResult(
        labels=labels, medoids=medoids, inertia=float((distances**2).sum())
    )


def pair_agreement(labels_a: np.ndarray, labels_b: np.ndarray) -> float:
    """Rand index: fraction of point pairs both clusterings agree on."""
    n = len(labels_a)
    if n != len(labels_b):
        raise ValueError("label arrays must align")
    if n < 2:
        return 1.0
    same_a = labels_a[:, None] == labels_a[None, :]
    same_b = labels_b[:, None] == labels_b[None, :]
    upper = np.triu_indices(n, k=1)
    return float((same_a[upper] == same_b[upper]).mean())
