"""Choosing k: the elbow (WCSS) method combined with silhouette.

The paper selects k = 90 where the WCSS elbow and the silhouette score
agree.  We implement both criteria so the pipeline selects k from data
at any scale (90 would over-fragment a scaled-down sample).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.kmedoids import ClusteringResult, kmedoids, silhouette_score


@dataclass
class KSelection:
    """Model-selection trace across candidate k values."""

    candidates: list[int]
    inertias: list[float]
    silhouettes: list[float]
    elbow_k: int
    silhouette_k: int
    chosen_k: int
    #: The clustering at each candidate k, aligned with ``candidates``.
    results: list[ClusteringResult] = field(default_factory=list, repr=False)

    @property
    def chosen_silhouette(self) -> float:
        """The silhouette of the clustering at ``chosen_k`` (a nonempty
        sample's)."""
        return self.silhouettes[self.candidates.index(self.chosen_k)]


def elbow_point(candidates: list[int], inertias: list[float]) -> int:
    """The candidate farthest below the first-to-last chord.

    Standard geometric elbow criterion on the WCSS curve.
    """
    if len(candidates) < 3:
        return candidates[0]
    x = np.array(candidates, dtype=float)
    y = np.array(inertias, dtype=float)
    x0, y0 = x[0], y[0]
    x1, y1 = x[-1], y[-1]
    chord = np.hypot(x1 - x0, y1 - y0)
    if chord == 0:
        return candidates[0]
    distances = np.abs((y1 - y0) * x - (x1 - x0) * y + x1 * y0 - y1 * x0) / chord
    return int(x[int(np.argmax(distances))])


def select_k(
    matrix: np.ndarray,
    candidates: list[int] | None = None,
    seed: int = 0,
) -> KSelection:
    """Run K-medoids across candidate ks and pick the best.

    An empty sample (a 0×0 matrix) has no candidates and selects k = 0.
    """
    n = matrix.shape[0]
    if n == 0:
        return KSelection([], [], [], elbow_k=0, silhouette_k=0, chosen_k=0)
    if candidates is None:
        upper = max(2, min(n - 1, 24))
        candidates = sorted({max(2, round(k)) for k in np.linspace(2, upper, 8)})
    candidates = [k for k in candidates if 2 <= k < n]
    if not candidates:
        candidates = [min(2, n)]
    results = [kmedoids(matrix, k, seed=seed) for k in candidates]
    inertias = [result.inertia for result in results]
    silhouettes = [silhouette_score(matrix, result.labels) for result in results]
    elbow_k = elbow_point(candidates, inertias)
    silhouette_k = candidates[int(np.argmax(silhouettes))]
    # convergence rule: prefer the elbow unless silhouette strongly
    # disagrees, in which case take the midpoint candidate
    if elbow_k == silhouette_k:
        chosen = elbow_k
    else:
        midpoint = (elbow_k + silhouette_k) / 2
        chosen = min(candidates, key=lambda k: abs(k - midpoint))
    return KSelection(
        candidates=list(candidates),
        inertias=inertias,
        silhouettes=silhouettes,
        elbow_k=elbow_k,
        silhouette_k=silhouette_k,
        chosen_k=chosen,
        results=results,
    )


def cluster_with_selection(
    matrix: np.ndarray, candidates: list[int] | None = None, seed: int = 0
) -> tuple[ClusteringResult, KSelection]:
    """Select k, then return the clustering at the chosen k.

    The chosen k is one of the candidates, so its clustering is the one
    :func:`select_k` already computed (K-medoids is deterministic in
    the matrix, k and seed).  An empty sample gives the empty
    clustering, with k = 0.
    """
    selection = select_k(matrix, candidates, seed=seed)
    if not selection.candidates:
        return kmedoids(matrix, 0, seed=seed), selection
    chosen = selection.candidates.index(selection.chosen_k)
    return selection.results[chosen], selection
