"""Property suite for the MinHash/LSH prefilter (repro.analysis.sketch).

Three satellite obligations from the issue, all pinned against exact
oracles:

* MinHash signatures are deterministic under seed and stable under
  permutation of the shingle set's presentation order.
* LSH banding never dismisses a pair whose true Jaccard is above the
  guarantee curve (no-false-dismissal), and identical-signature pairs
  are always candidates.
* The sketch-layer bounds compose with ``dld_bounds``: the combined
  lower bound never exceeds the exact Damerau-Levenshtein distance and
  the upper never undercuts it, on generated token sequences.

Plus the exactness contract of the pruned matrix itself: below the
activation floor the sketch path *is* the exact path (bit-identical);
with the floor forced to zero every measured entry equals the exact
oracle and every pruned entry is a sound upper bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.analysis.dld import damerau_levenshtein, dld_bounds
from repro.analysis.distance import (
    clear_distance_caches,
    distance_matrix,
    pair_distance,
)
from repro.analysis.sketch import (
    DEFAULT_SKETCH_CONFIG,
    PRUNED_DISTANCE,
    MinHashSketcher,
    SketchConfig,
    clear_sketch_caches,
    combined_bounds,
    lsh_candidate_pairs,
    overlap_lower_bound,
    shingle_hashes,
    sketch_distance_matrix,
    synthetic_token_corpus,
)

pytestmark = pytest.mark.sketch

#: A small but realistic token alphabet for generated sequences.
TOKENS = st.sampled_from(
    ["cd", "/tmp", "wget", "<url>", "<ip>", "chmod", "777", "sh", "rm",
     "-rf", "uname", "-a", "echo", "<blob>", "cat", "busybox", "x.sh"]
)
SEQUENCES = st.lists(TOKENS, min_size=0, max_size=25)


def make_config(**overrides) -> SketchConfig:
    defaults = dict(num_perm=32, bands=16, shingle_size=2, min_sequences=0)
    defaults.update(overrides)
    return SketchConfig(**defaults)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_distance_caches()
    clear_sketch_caches()
    yield


class TestSketchConfig:
    def test_defaults_are_valid(self):
        assert DEFAULT_SKETCH_CONFIG.rows * DEFAULT_SKETCH_CONFIG.bands == (
            DEFAULT_SKETCH_CONFIG.num_perm
        )

    def test_bands_must_divide(self):
        with pytest.raises(ValueError):
            SketchConfig(num_perm=128, bands=33)

    def test_collision_probability_is_monotone(self):
        config = DEFAULT_SKETCH_CONFIG
        grid = np.linspace(0.0, 1.0, 21)
        values = [config.collision_probability(s) for s in grid]
        assert values == sorted(values)
        assert values[0] == 0.0
        assert values[-1] == 1.0

    def test_guaranteed_jaccard_bounds_dismissal(self):
        config = DEFAULT_SKETCH_CONFIG
        p = 1e-9
        s = config.guaranteed_jaccard(p)
        # at similarity s the survival (non-collision) probability is <= p
        assert (1.0 - s**config.rows) ** config.bands <= p * (1 + 1e-9)
        assert config.collision_probability(s) >= 1.0 - p * (1 + 1e-9)


class TestMinHashSignatures:
    @given(seq=SEQUENCES)
    @settings(max_examples=60, deadline=None)
    def test_deterministic_under_seed(self, seq):
        a = MinHashSketcher(make_config()).signature(seq)
        b = MinHashSketcher(make_config()).signature(seq)
        assert np.array_equal(a, b)

    @given(seq=st.lists(TOKENS, min_size=1, max_size=25), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_permutation_stable_over_shingle_set(self, seq, data):
        """Reordering tokens preserves the signature whenever it
        preserves the shingle *set* — exactly true at shingle_size=1
        (token-set semantics)."""
        config = make_config(shingle_size=1)
        sketcher = MinHashSketcher(config)
        shuffled = data.draw(st.permutations(seq))
        assert np.array_equal(
            sketcher.signature(seq), sketcher.signature(list(shuffled))
        )

    @given(seq=SEQUENCES)
    @settings(max_examples=60, deadline=None)
    def test_different_seeds_differ(self, seq):
        base = MinHashSketcher(make_config()).signature(seq)
        other = MinHashSketcher(make_config(seed=99)).signature(seq)
        # not a hard guarantee per-component, but equal full signatures
        # under different permutations would mean a broken permutation
        if len(seq) >= 2:
            assert not np.array_equal(base, other)

    def test_signature_estimates_jaccard(self):
        config = SketchConfig(
            num_perm=512, bands=128, shingle_size=1, min_sequences=0
        )
        sketcher = MinHashSketcher(config)
        a = [f"t{i}" for i in range(20)]
        b = [f"t{i}" for i in range(10, 30)]  # |∩|=10, |∪|=30
        estimate = MinHashSketcher.estimated_jaccard(
            sketcher.signature(a), sketcher.signature(b)
        )
        assert abs(estimate - 1 / 3) < 0.12  # ~5 sigma at 512 perms

    def test_empty_sequence_has_total_signature(self):
        sketcher = MinHashSketcher(make_config())
        signature = sketcher.signature([])
        assert signature.shape == (32,)
        assert np.array_equal(signature, sketcher.signature(()))

    def test_shingle_hashes_shorter_than_width(self):
        assert shingle_hashes(["one"], 2).shape == (1,)
        assert shingle_hashes([], 2).shape == (1,)


class TestLshNoFalseDismissal:
    def test_identical_signatures_always_candidates(self):
        config = make_config()
        sketcher = MinHashSketcher(config)
        seqs = [["wget", "<url>", "sh"], ["wget", "<url>", "sh"]]
        # identical sequences dedup upstream, but identical *signatures*
        # from distinct sequences must still collide in every band
        signatures = sketcher.signatures(seqs)
        assert (0, 1) in lsh_candidate_pairs(signatures, config)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_above_guarantee_curve_never_dismissed(self, data):
        """Pairs whose true shingle Jaccard exceeds the guarantee curve
        at dismissal probability 1e-12 are candidates — over the
        property run the expected number of counterexamples is ~1e-10,
        i.e. a failure here is a real bug, not bad luck."""
        config = SketchConfig(
            num_perm=128, bands=64, shingle_size=1, min_sequences=0
        )
        guarantee = config.guaranteed_jaccard(1e-12)
        base = data.draw(st.lists(TOKENS, min_size=8, max_size=20))
        # mutate a copy lightly so the pair stays above the curve
        mutated = list(base)
        mutated.append(data.draw(TOKENS))
        set_a = set(shingle_hashes(base, 1).tolist())
        set_b = set(shingle_hashes(mutated, 1).tolist())
        jaccard = len(set_a & set_b) / len(set_a | set_b)
        if jaccard < guarantee:
            return  # below the curve: no guarantee claimed
        sketcher = MinHashSketcher(config)
        signatures = sketcher.signatures([base, mutated])
        assert (0, 1) in lsh_candidate_pairs(signatures, config)

    def test_recall_tracks_guarantee_curve_on_corpus(self):
        """Empirical recall on the synthetic corpus at several Jaccard
        levels is at least the guarantee curve's prediction minus a
        small sampling slack."""
        config = SketchConfig(min_sequences=0)
        corpus = [tuple(c) for c in synthetic_token_corpus(300, seed=5)]
        sketcher = MinHashSketcher(config)
        signatures = sketcher.signatures(corpus)
        candidates = set(lsh_candidate_pairs(signatures, config))
        shingle_sets = [
            set(shingle_hashes(seq, config.shingle_size).tolist())
            for seq in corpus
        ]
        buckets: dict[int, list[bool]] = {}
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                union = shingle_sets[i] | shingle_sets[j]
                jaccard = len(shingle_sets[i] & shingle_sets[j]) / len(union)
                level = int(jaccard * 10)
                buckets.setdefault(level, []).append((i, j) in candidates)
        for level, hits in sorted(buckets.items()):
            if len(hits) < 20:
                continue
            predicted = config.collision_probability(level / 10)
            observed = sum(hits) / len(hits)
            assert observed >= predicted - 0.1, (
                f"recall {observed:.3f} at Jaccard~{level / 10:.1f} far "
                f"below predicted {predicted:.3f}"
            )


class TestBoundsComposition:
    @given(a=SEQUENCES, b=SEQUENCES)
    @settings(max_examples=120, deadline=None)
    def test_combined_bounds_bracket_exact_dld(self, a, b):
        lower, upper = combined_bounds(tuple(a), tuple(b))
        exact = damerau_levenshtein(tuple(a), tuple(b))
        assert lower <= exact <= upper

    @given(a=SEQUENCES, b=SEQUENCES)
    @settings(max_examples=120, deadline=None)
    def test_combined_never_looser_than_dld_bounds(self, a, b):
        base_lower, base_upper = dld_bounds(tuple(a), tuple(b))
        lower, upper = combined_bounds(tuple(a), tuple(b))
        assert lower >= base_lower
        assert upper == base_upper

    @given(a=SEQUENCES)
    @settings(max_examples=40, deadline=None)
    def test_overlap_bound_zero_on_self(self, a):
        assert overlap_lower_bound(tuple(a), tuple(a)) == 0

    def test_disjoint_multisets_pin_normalized_distance(self):
        a = ("alpha", "beta", "gamma")
        b = ("delta", "epsilon")
        lower, upper = combined_bounds(a, b)
        assert lower == upper == 3
        assert pair_distance(a, b) == 1.0


class TestSketchMatrixContract:
    def test_below_floor_bypasses_to_exact_bits(self):
        corpus = synthetic_token_corpus(80, seed=1)
        exact = distance_matrix(corpus)
        approx = sketch_distance_matrix(corpus, DEFAULT_SKETCH_CONFIG)
        assert approx.mode == "exact"
        assert approx.exact
        assert not approx.pruned.any()
        assert np.array_equal(exact, approx.values)

    def test_distance_matrix_lsh_mode_below_floor_identical(self):
        corpus = synthetic_token_corpus(60, seed=2)
        assert np.array_equal(
            distance_matrix(corpus), distance_matrix(corpus, mode="lsh")
        )

    def test_distance_matrix_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            distance_matrix([["a"]], mode="fuzzy")

    def test_forced_floor_measured_entries_equal_exact(self):
        corpus = synthetic_token_corpus(200, seed=3)
        config = SketchConfig(min_sequences=0)
        approx = sketch_distance_matrix(corpus, config)
        exact = distance_matrix(corpus)
        assert approx.mode == "lsh"
        assert approx.pruned_pairs > 0
        measured = ~approx.pruned
        assert np.array_equal(approx.values[measured], exact[measured])
        # pruned entries hold the trivial upper bound, which is sound
        assert np.all(approx.values[approx.pruned] == PRUNED_DISTANCE)
        assert np.all(approx.values[approx.pruned] >= exact[approx.pruned])

    def test_matrix_is_symmetric_with_zero_diagonal(self):
        corpus = synthetic_token_corpus(150, seed=4)
        approx = sketch_distance_matrix(corpus, SketchConfig(min_sequences=0))
        assert np.array_equal(approx.values, approx.values.T)
        assert np.all(np.diag(approx.values) == 0.0)
        assert not np.diag(approx.pruned).any()

    def test_duplicates_share_rows_and_empty_pairs_are_pinned(self):
        corpus = [["wget", "<url>"], [], ["wget", "<url>"], ["uname", "-a"]]
        config = make_config()
        approx = sketch_distance_matrix(corpus, config)
        assert approx.distinct_sequences == 3
        assert np.array_equal(approx.values[0], approx.values[2])
        # empty-vs-nonempty is exactly 1.0 and never marked pruned
        assert approx.values[1, 0] == 1.0
        assert not approx.pruned[1, 0]

    def test_telemetry_counts_pair_disposition(self):
        corpus = synthetic_token_corpus(150, seed=7)
        config = SketchConfig(min_sequences=0)
        with telemetry.collecting() as registry:
            approx = sketch_distance_matrix(corpus, config)
        counters = registry.counters
        assert counters["sketch.matrix_builds"] == 1
        assert counters["sketch.signatures"] == 150
        assert counters["sketch.candidate_pairs"] == approx.candidate_pairs
        assert counters["sketch.pruned_pairs"] == approx.pruned_pairs
        total = 150 * 149 // 2
        assert (
            counters["sketch.candidate_pairs"]
            + counters["sketch.pinned_pairs"]
            + counters["sketch.pruned_pairs"]
        ) == total
        assert "sketch.candidate_ratio" in registry.gauges

    def test_bypass_counts_telemetry(self):
        with telemetry.collecting() as registry:
            sketch_distance_matrix(
                synthetic_token_corpus(10, seed=8), DEFAULT_SKETCH_CONFIG
            )
        assert registry.counters["sketch.bypassed"] == 1
        assert "sketch.matrix_builds" not in registry.counters


class TestSyntheticCorpus:
    def test_deterministic_and_distinct(self):
        a = synthetic_token_corpus(120, seed=9)
        b = synthetic_token_corpus(120, seed=9)
        assert a == b
        assert len({tuple(seq) for seq in a}) == 120

    def test_different_seeds_differ(self):
        assert synthetic_token_corpus(50, seed=1) != synthetic_token_corpus(
            50, seed=2
        )
