"""Hierarchical-clustering baseline and the flow graph.

The linkage is a numpy port of scipy's algorithms, so scipy is the
reference here: heights and every ``maxclust`` partition must equal
scipy's, ties included.  Those tests skip where scipy is not installed;
the runtime never imports it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.hierarchical import (
    METHODS,
    cut,
    hierarchical_cluster,
    linkage,
    pair_agreement,
)
from repro.analysis.kmedoids import kmedoids
from repro.analysis.storage import flow_graph, heaviest_edge


def two_group_matrix(n_per_group: int = 6, gap: float = 1.0) -> np.ndarray:
    n = 2 * n_per_group
    matrix = np.full((n, n), gap)
    for start in (0, n_per_group):
        block = slice(start, start + n_per_group)
        matrix[block, block] = 0.05
    np.fill_diagonal(matrix, 0.0)
    return matrix


def symmetric(n: int, cells: list[float]) -> np.ndarray:
    """A distance matrix whose upper triangle is ``cells``, row by row."""
    matrix = np.zeros((n, n))
    matrix[np.triu_indices(n, 1)] = cells
    return matrix + matrix.T


def partition(labels) -> list[int]:
    """Labels renumbered by first appearance: equal partitions compare equal."""
    first: dict[int, int] = {}
    return [first.setdefault(label, len(first)) for label in np.asarray(labels).tolist()]


@pytest.fixture(scope="module")
def scipy_hierarchy():
    return pytest.importorskip("scipy.cluster.hierarchy")


def assert_matches_scipy(hierarchy, matrix: np.ndarray) -> None:
    """Heights and the ``maxclust`` partition at every k equal scipy's."""
    n = len(matrix)
    condensed = matrix[np.triu_indices(n, 1)]
    for method in METHODS:
        reference = hierarchy.linkage(condensed, method=method)
        pairs, heights = linkage(matrix, method)
        assert np.array_equal(heights, reference[:, 2]), method
        for k in range(1, n + 1):
            expected = hierarchy.fcluster(reference, t=k, criterion="maxclust")
            assert partition(cut(pairs, heights, k)) == partition(expected), (
                method,
                k,
            )


@st.composite
def tie_heavy_matrices(draw):
    """Every off-diagonal cell is one of at most 6 distinct values."""
    n = draw(st.integers(2, 24))
    values = draw(
        st.lists(st.floats(0, 1), min_size=1, max_size=6, unique=True)
    )
    size = n * (n - 1) // 2
    cells = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return symmetric(n, cells)


@st.composite
def dld_like_matrices(draw):
    """Cells are ``a/b`` ratios, as edit counts over token lengths are."""
    n = draw(st.integers(2, 24))
    ratio = st.integers(1, 12).flatmap(
        lambda longer: st.integers(0, longer).map(lambda edits: edits / longer)
    )
    size = n * (n - 1) // 2
    return symmetric(n, draw(st.lists(ratio, min_size=size, max_size=size)))


class TestAgainstScipy:
    @given(matrix=tie_heavy_matrices())
    @settings(max_examples=100, deadline=None)
    def test_tie_heavy_matrices(self, scipy_hierarchy, matrix):
        assert_matches_scipy(scipy_hierarchy, matrix)

    @given(matrix=dld_like_matrices())
    @settings(max_examples=100, deadline=None)
    def test_dld_like_matrices(self, scipy_hierarchy, matrix):
        assert_matches_scipy(scipy_hierarchy, matrix)

    def test_seed7_clustering_matrix(self, scipy_hierarchy, dataset):
        clustering = dataset.clustering()
        assert clustering.matrix.shape == (117, 117)
        assert clustering.result.k == 11
        assert_matches_scipy(scipy_hierarchy, clustering.matrix)

    @pytest.mark.cluster
    def test_seed7_clustering_matrix_at_1e4(self, scipy_hierarchy, dataset_5x):
        clustering = dataset_5x.clustering()
        assert clustering.matrix.shape == (400, 400)
        assert clustering.result.k == 8
        assert_matches_scipy(scipy_hierarchy, clustering.matrix)


class TestHierarchical:
    def test_separates_two_groups(self):
        matrix = two_group_matrix()
        result = hierarchical_cluster(matrix, 2)
        assert len(set(result.labels[:6].tolist())) == 1
        assert result.labels[0] != result.labels[6]

    def test_agrees_with_kmedoids_on_clean_data(self):
        matrix = two_group_matrix(8)
        hier = hierarchical_cluster(matrix, 2)
        medo = kmedoids(matrix, 2, seed=0)
        assert pair_agreement(hier.labels, medo.labels) == 1.0

    def test_methods(self):
        matrix = two_group_matrix()
        for method in METHODS:
            result = hierarchical_cluster(matrix, 2, method=method)
            assert result.k == 2

    def test_k_one(self):
        matrix = two_group_matrix(3)
        result = hierarchical_cluster(matrix, 1)
        assert set(result.labels.tolist()) == {0}

    def test_k_n_is_all_singletons(self):
        matrix = two_group_matrix(3)
        result = hierarchical_cluster(matrix, 6)
        assert result.labels.tolist() == list(range(6))

    def test_tied_merges_go_in_together(self):
        # All six pairs tie: "at most 2 clusters" applies every merge.
        matrix = symmetric(4, [1.0] * 6)
        for method in METHODS:
            assert hierarchical_cluster(matrix, 2, method=method).k == 1

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hierarchical_cluster(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            hierarchical_cluster(two_group_matrix(2), 0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_distance_raises(self, value, method):
        matrix = two_group_matrix()
        matrix[0, 7] = matrix[7, 0] = value
        with pytest.raises(ValueError, match="finite"):
            hierarchical_cluster(matrix, 2, method=method)

    def test_unsupported_method_raises(self):
        with pytest.raises(ValueError, match="ward"):
            hierarchical_cluster(two_group_matrix(), 2, method="ward")

    def test_medoids_are_members(self):
        matrix = two_group_matrix()
        result = hierarchical_cluster(matrix, 2)
        for cluster, medoid in enumerate(result.medoids):
            assert result.labels[medoid] == cluster

    def test_single_point(self):
        result = hierarchical_cluster(np.zeros((1, 1)), 1)
        assert result.labels.tolist() == [0]


class TestPairAgreement:
    def test_identical(self):
        labels = np.array([0, 0, 1, 1])
        assert pair_agreement(labels, labels) == 1.0

    def test_label_permutation_is_equivalent(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([1, 1, 0, 0])
        assert pair_agreement(a, b) == 1.0

    def test_disagreement(self):
        a = np.array([0, 0, 1, 1])
        b = np.array([0, 1, 0, 1])
        assert pair_agreement(a, b) < 0.5

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pair_agreement(np.array([0]), np.array([0, 1]))


class TestFlowGraph:
    def test_graph_structure(self):
        flows = Counter(
            {
                ("ISP/NSP", "Hosting", False): 10,
                ("ISP/NSP", "Hosting", True): 2,
                ("Hosting", "CDN", False): 3,
            }
        )
        assert flow_graph(flows) == {
            "client:ISP/NSP": {"storage:Hosting": 12},
            "client:Hosting": {"storage:CDN": 3},
        }

    def test_bipartite(self):
        flows = Counter({("ISP/NSP", "Hosting", False): 1})
        graph = flow_graph(flows)
        assert all(source.startswith("client:") for source in graph)
        assert all(
            target.startswith("storage:")
            for targets in graph.values()
            for target in targets
        )

    def test_heaviest_edge_ties_go_to_the_first_source(self):
        # Edges are listed grouped by source, as networkx's DiGraph did:
        # ISP/NSP→Other is inserted after Hosting→CDN but wins the tie.
        flows = Counter(
            {
                ("ISP/NSP", "Hosting", False): 5,
                ("Hosting", "CDN", False): 7,
                ("ISP/NSP", "Other", False): 7,
            }
        )
        assert heaviest_edge(flow_graph(flows)) == (
            "client:ISP/NSP",
            "storage:Other",
            7,
        )


class TestBaselineExperiment:
    def test_registered_and_runs(self, results):
        result = results["ext_baseline_clustering"]
        methods = [row[0] for row in result.rows]
        assert "k-medoids (paper)" in methods
        assert any(m.startswith("hierarchical/") for m in methods)
        agreement = float(
            " ".join(result.notes).split("hierarchical/average at k=")[1]
            .split(": ")[1].split(" ")[0]
        )
        assert agreement > 0.5
