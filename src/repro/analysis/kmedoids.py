"""K-medoids clustering over a precomputed distance matrix.

The paper describes "K-Means using the [DLD] scoring function" applied
to the pairwise distance matrix — operationally a K-medoids/PAM
procedure, since means are undefined for token sequences.  This is a
deterministic PAM-style implementation: k-means++-like seeding on the
distance matrix, then alternating assignment and medoid update until
stable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np


@dataclass
class ClusteringResult:
    """Labels, medoids and the objective for one k."""

    labels: np.ndarray          # cluster index per point
    medoids: list[int]          # point index of each cluster's medoid
    inertia: float              # within-cluster sum of squared distances

    @property
    def k(self) -> int:
        return len(self.medoids)

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def _seed_medoids(matrix: np.ndarray, k: int, rng: random.Random) -> list[int]:
    """k-means++-style seeding: spread initial medoids apart."""
    n = matrix.shape[0]
    first = rng.randrange(n)
    medoids = [first]
    closest = matrix[first].copy()
    while len(medoids) < k:
        weights = closest**2
        total = float(weights.sum())
        if total <= 0:
            remaining = [i for i in range(n) if i not in medoids]
            medoids.append(rng.choice(remaining))
            continue
        point = rng.random() * total
        cumulative = np.cumsum(weights)
        chosen = int(np.searchsorted(cumulative, point))
        chosen = min(chosen, n - 1)
        if chosen in medoids:
            chosen = int(np.argmax(closest))
        medoids.append(chosen)
        closest = np.minimum(closest, matrix[chosen])
    return medoids


def kmedoids(
    matrix: np.ndarray, k: int, seed: int = 0, max_iter: int = 50
) -> ClusteringResult:
    """Cluster ``n`` points given their ``n×n`` distance matrix.

    No points (``n = 0``) take ``k = 0`` and give the empty clustering.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("distance matrix must be square")
    if n == k == 0:
        return ClusteringResult(
            labels=np.zeros(0, dtype=np.intp), medoids=[], inertia=0.0
        )
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    rng = random.Random(seed)
    medoids = _seed_medoids(matrix, k, rng)
    labels = np.argmin(matrix[:, medoids], axis=1)
    for _ in range(max_iter):
        changed = False
        for cluster in range(k):
            members = np.flatnonzero(labels == cluster)
            if members.size == 0:
                continue
            sub = matrix[np.ix_(members, members)]
            best_local = int(np.argmin(sub.sum(axis=1)))
            candidate = int(members[best_local])
            if candidate != medoids[cluster]:
                medoids[cluster] = candidate
                changed = True
        new_labels = np.argmin(matrix[:, medoids], axis=1)
        if not changed and np.array_equal(new_labels, labels):
            break
        labels = new_labels
    distances = matrix[np.arange(n), np.array(medoids)[labels]]
    inertia = float((distances**2).sum())
    return ClusteringResult(labels=labels, medoids=medoids, inertia=inertia)


def silhouette_score(matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette coefficient from a distance matrix.

    Each cluster's member indices are found once.  Every per-point sum
    is the same 1-D reduction over the same elements in the same order
    as masking the row would give, and a mean is that sum divided by
    the count, as ``ndarray.mean`` computes it, so the score is exact
    to the bit.  A 2-D ``axis=1`` reduction would not be.
    """
    n = matrix.shape[0]
    unique, cluster_of = np.unique(labels, return_inverse=True)
    if unique.size < 2 or unique.size >= n:
        return 0.0
    members = [np.flatnonzero(labels == cluster) for cluster in unique]
    scores = np.zeros(n)
    for i in range(n):
        own = int(cluster_of[i])
        own_members = members[own]
        if own_members.size <= 1:
            continue
        row = matrix[i]
        a = row[own_members].sum() / (own_members.size - 1)
        b = np.inf
        for cluster, other_members in enumerate(members):
            if cluster != own:
                mean = row[other_members].sum() / other_members.size
                b = min(b, float(mean))
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0 else (b - a) / denominator
    return float(scores.mean())
