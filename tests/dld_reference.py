"""The reference the batched DLD kernel is checked against.

* :func:`reference_dld` is the restricted Damerau-Levenshtein distance
  (optimal string alignment) as a naive memoized recursion, and
  :func:`reference_distance` normalizes it as a distance matrix does.
* :func:`reproduction_matrices` collects each DLD matrix a reproduction
  builds over a dataset, with the token sequences it was built from.

``scripts/soak.py`` imports this module too, so it holds no test.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: The matrices a reproduction builds, in the order it builds them.
MATRIX_NAMES = ("clustering", "ablation normalized", "ablation raw", "fig14")


def reference_dld(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Naive memoized restricted-DLD (optimal string alignment)."""

    @lru_cache(maxsize=None)
    def solve(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        cost = 0 if a[i - 1] == b[j - 1] else 1
        best = min(
            solve(i - 1, j) + 1,
            solve(i, j - 1) + 1,
            solve(i - 1, j - 1) + cost,
        )
        if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
            best = min(best, solve(i - 2, j - 2) + cost)
        return best

    return solve(len(a), len(b))


def reference_distance(a, b) -> float:
    """:func:`reference_dld` divided by the longer length (0.0 for two
    empty sequences), the value every matrix entry must equal."""
    longest = max(len(a), len(b))
    return reference_dld(tuple(a), tuple(b)) / longest if longest else 0.0


def reproduction_matrices(dataset) -> dict[str, tuple[list[list[str]], np.ndarray]]:
    """``{name: (token sequences, matrix)}`` for each of
    :data:`MATRIX_NAMES`: the clustering sample, the tokenizer
    ablation's two builds and Figure 14's exemplars.

    The experiments' ``distance_matrix`` bindings are wrapped while the
    ablation and Figure 14 run, and restored afterwards.
    """
    from repro.experiments import extensions, fig14_category_dld
    from repro.experiments.base import get_experiment
    from repro.experiments.runner import load_all_experiments

    load_all_experiments()
    clustering = dataset.clustering()
    built = [(clustering.tokens, clustering.matrix)]
    modules = (extensions, fig14_category_dld)
    originals = [module.distance_matrix for module in modules]
    for module, build in zip(modules, originals):

        def record(token_sequences, _build=build):
            built.append((token_sequences, _build(token_sequences)))
            return built[-1][1]

        module.distance_matrix = record
    try:
        get_experiment("ext_ablation_tokenizer").run(dataset)
        get_experiment("fig14").run(dataset)
    finally:
        for module, build in zip(modules, originals):
            module.distance_matrix = build
    assert len(built) == len(MATRIX_NAMES)
    return dict(zip(MATRIX_NAMES, built))
