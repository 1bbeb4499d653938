"""Deeper property-based tests on core data structures.

The batched DLD kernel is cross-checked against ``reference_dld``
(``tests/dld_reference.py``), a brute-force restricted
Damerau-Levenshtein distance; K-medoids outputs get invariant checks,
and the fake filesystem a stateful model test.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analysis.distance import distance_matrix
from repro.analysis.dld import pairwise_dld
from repro.analysis.kmedoids import kmedoids, silhouette_score
from repro.honeypot.fs import FakeFilesystem
from tests.dld_reference import reference_distance, reference_dld

_tokens = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)

#: 40 symbols give sparse bitmasks and few matches; the 2- and 4-symbol
#: alphabets give dense ones.
_WIDE_ALPHABET = [f"t{index}" for index in range(40)]

#: Where a bit-vector kernel breaks: one bit, either side of a 64-bit
#: word, the session token cap and past it.
_EDGE_LENGTHS = (1, 63, 64, 65, 120, 130)

#: Lengths one batch mixes, so that short pairs run inside a batch whose
#: masks are two 64-bit words wide.
_BATCH_LENGTHS = (0, 1, 63, 64, 65, 120, 128)


def dld(a: list[str], b: list[str]) -> int:
    """The kernel's DLD of one pair."""
    return int(pairwise_dld([a, b])[0, 1])


def _long_tokens(alphabet: list[str]) -> st.SearchStrategy[list[str]]:
    """Sequences of 0–130 tokens, the length drawn uniformly."""
    return st.integers(min_value=0, max_value=130).flatmap(
        lambda n: st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)
    )


def _assert_matches_reference(a: list[str], b: list[str]) -> None:
    expected = reference_dld(tuple(a), tuple(b))
    assert dld(a, b) == expected
    assert dld(b, a) == expected


def _assert_batch_matches_reference(sequences: list[list[str]]) -> None:
    matrix = pairwise_dld(sequences)
    for i, a in enumerate(sequences):
        assert matrix[i, i] == 0
        for j in range(i + 1, len(sequences)):
            expected = reference_dld(tuple(a), tuple(sequences[j]))
            assert matrix[i, j] == matrix[j, i] == expected


def _edited(tokens: list[str], rng: random.Random, edits: int) -> list[str]:
    """``tokens`` after ``edits`` random substitutions, insertions,
    deletions and adjacent transpositions."""
    out = list(tokens)
    for _ in range(edits):
        kind = rng.randrange(4)
        if kind == 0 and out:
            out[rng.randrange(len(out))] = rng.choice(_WIDE_ALPHABET)
        elif kind == 1:
            out.insert(rng.randrange(len(out) + 1), rng.choice(_WIDE_ALPHABET))
        elif kind == 2 and out:
            del out[rng.randrange(len(out))]
        elif kind == 3 and len(out) >= 2:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


@st.composite
def _mixed_batches(draw) -> list[list[str]]:
    """2–6 sequences whose lengths come from :data:`_BATCH_LENGTHS`, over
    a dense or a sparse alphabet, plus a near copy of one of them."""
    alphabet = draw(st.sampled_from((["a", "b"], _WIDE_ALPHABET)))
    lengths = draw(st.lists(st.sampled_from(_BATCH_LENGTHS), min_size=2, max_size=6))
    rng = draw(st.randoms())
    batch = [[rng.choice(alphabet) for _ in range(n)] for n in lengths]
    batch.append(_edited(rng.choice(batch), rng, rng.randrange(1, 8)))
    return batch


class TestDldAgainstReference:
    @given(_tokens, _tokens)
    @settings(max_examples=250)
    def test_matches_reference(self, a, b):
        assert dld(a, b) == reference_dld(tuple(a), tuple(b))

    @given(_long_tokens(["a", "b", "c", "d"]), _long_tokens(["a", "b", "c", "d"]))
    @settings(max_examples=40, deadline=None)
    def test_long_sequences_match_reference(self, a, b):
        _assert_matches_reference(a, b)

    @given(_long_tokens(_WIDE_ALPHABET), _long_tokens(_WIDE_ALPHABET))
    @settings(max_examples=40, deadline=None)
    def test_wide_alphabet_matches_reference(self, a, b):
        _assert_matches_reference(a, b)

    @given(_long_tokens(_WIDE_ALPHABET), st.integers(0, 12), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_near_copies_match_reference(self, a, edits, rng):
        # Random pairs sit near the upper bound; a few edits away from a
        # copy, transpositions and matches land at every bit position.
        _assert_matches_reference(a, _edited(a, rng, edits))

    @given(_mixed_batches())
    @settings(max_examples=25, deadline=None)
    def test_mixed_length_batches_match_reference(self, batch):
        _assert_batch_matches_reference(batch)

    @given(st.lists(_tokens, min_size=2, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_short_batches_match_reference(self, batch):
        _assert_batch_matches_reference(batch)

    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    def test_edge_lengths_match_reference(self, length):
        rng = random.Random(length)
        for other in _EDGE_LENGTHS + (0, length - 1, length + 1):
            for alphabet in (["a", "b"], _WIDE_ALPHABET):
                a = [rng.choice(alphabet) for _ in range(length)]
                b = [rng.choice(alphabet) for _ in range(other)]
                _assert_matches_reference(a, b)
            a = [rng.choice(_WIDE_ALPHABET) for _ in range(length)]
            _assert_matches_reference(a, _edited(a, rng, 1 + other % 7))

    @pytest.mark.parametrize("length", _EDGE_LENGTHS)
    def test_all_equal_tokens(self, length):
        for other in _EDGE_LENGTHS + (0,):
            _assert_matches_reference(["x"] * length, ["x"] * other)
            _assert_matches_reference(["x"] * length, ["y"] * other)

    def test_transposition_at_every_position(self):
        tokens = _WIDE_ALPHABET * 3 + _WIDE_ALPHABET[:10]  # no equal neighbours
        swaps = []
        for i in range(len(tokens) - 1):
            swapped = list(tokens)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            swaps.append(swapped)
        matrix = pairwise_dld([tokens] + swaps)
        assert (matrix[0, 1:] == 1).all()
        assert (matrix[1:, 0] == 1).all()

    def test_transposition_cases(self):
        # classic OSA cases
        assert dld(list("ca"), list("abc")) == 3
        assert dld(list("ab"), list("ba")) == 1
        assert dld(list("abcd"), list("badc")) == 2


class TestDldMetricProperties:
    """Invariants the clustering pipeline relies on."""

    @given(_tokens, _tokens)
    @settings(max_examples=200)
    def test_symmetry(self, a, b):
        assert dld(a, b) == dld(b, a)
        matrix = distance_matrix([a, b])
        assert matrix[0, 1] == matrix[1, 0]

    @given(_tokens)
    @settings(max_examples=100)
    def test_identity(self, a):
        assert dld(a, a) == 0
        assert not distance_matrix([a, a]).any()

    @given(st.lists(_tokens, min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_length_difference_and_max_length_bounds(self, batch):
        # |len(a)-len(b)| <= DLD <= max(len(a), len(b)): every edit
        # changes the length by at most one, and no alignment needs more
        # edits than replacing the shorter sequence wholesale.
        lengths = np.array([len(seq) for seq in batch])
        matrix = pairwise_dld(batch)
        assert (np.abs(np.subtract.outer(lengths, lengths)) <= matrix).all()
        assert (matrix <= np.maximum.outer(lengths, lengths)).all()

    @given(_tokens, _tokens)
    @settings(max_examples=200)
    def test_normalized_in_unit_interval(self, a, b):
        value = distance_matrix([a, b])[0, 1]
        assert 0.0 <= value <= 1.0
        if a == b:
            assert value == 0.0
        elif not a or not b:
            # one side empty: the distance is the other side's length
            assert value == 1.0

    @given(_tokens.filter(lambda t: len(t) >= 2), st.data())
    @settings(max_examples=150)
    def test_single_adjacent_transposition_costs_one(self, a, data):
        index = data.draw(st.integers(min_value=0, max_value=len(a) - 2))
        assume(a[index] != a[index + 1])
        swapped = a[:index] + [a[index + 1], a[index]] + a[index + 2 :]
        assert dld(a, swapped) == 1

    @given(_tokens, _tokens, _tokens)
    @settings(max_examples=150)
    def test_relaxed_triangle_bound(self, a, b, c):
        # Restricted DLD (optimal string alignment) is NOT a metric — it
        # can violate the triangle inequality — but it is sandwiched by
        # plain Levenshtein (a transposition is two Levenshtein edits),
        # which gives the provable 2x relaxation used to reason about
        # cluster separations.
        matrix = pairwise_dld([a, b, c])
        direct = matrix[0, 2]
        assert direct <= 2 * (matrix[0, 1] + matrix[1, 2]) or direct == 0

    def test_triangle_inequality_violation_documented(self):
        # The classic OSA counterexample: d(ca, abc) = 3 but the detour
        # through "ac" costs only 1 + 1.  Downstream code treats DLD as
        # a dissimilarity, never as a true metric.
        matrix = pairwise_dld([list("ca"), list("ac"), list("abc")])
        assert matrix[0, 2] > matrix[0, 1] + matrix[1, 2]


class TestDistanceMatrixProperties:
    """The deduplicating matrix build against a naive double loop."""

    @given(st.lists(_tokens, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_distance_matrix_matches_naive_double_loop(self, sequences):
        matrix = distance_matrix(sequences)
        for i, a in enumerate(sequences):
            for j, b in enumerate(sequences):
                assert matrix[i, j] == reference_distance(a, b)
        assert np.array_equal(matrix, matrix.T)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    values = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    matrix = np.zeros((n, n))
    index = 0
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = values[index]
            index += 1
    return matrix


class TestKMedoidsInvariants:
    @given(distance_matrices(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_output_invariants(self, matrix, k):
        n = matrix.shape[0]
        k = min(k, n)
        result = kmedoids(matrix, k, seed=1)
        assert len(result.labels) == n
        assert result.inertia >= 0.0
        assert len(result.medoids) == k
        # labels reference valid clusters; every medoid belongs to its
        # own cluster
        assert set(result.labels.tolist()) <= set(range(k))
        for cluster, medoid in enumerate(result.medoids):
            members = result.members(cluster)
            if members.size:
                assert result.labels[medoid] == cluster

    @given(distance_matrices())
    @settings(max_examples=40, deadline=None)
    def test_silhouette_bounds(self, matrix):
        n = matrix.shape[0]
        result = kmedoids(matrix, min(3, n), seed=0)
        score = silhouette_score(matrix, result.labels)
        assert -1.0 <= score <= 1.0


class FilesystemMachine(RuleBasedStateMachine):
    """Model-based test: FakeFilesystem vs a dict model.

    ``a/x`` lies under ``a``: whichever of the two is written first makes
    the other unwritable (a file cannot be a directory, nor the reverse)
    until it is deleted.
    """

    def __init__(self):
        super().__init__()
        self.fs = FakeFilesystem()
        self.model: dict[str, bytes] = {}
        self.dirs: set[str] = set()

    names = st.sampled_from(["a", "b", "c", "deep/x", "deep/y", "a/x"])
    payloads = st.binary(max_size=16)

    def _writable(self, path: str) -> bool:
        parents = path.split("/")
        ancestors = {"/".join(parents[:end]) for end in range(3, len(parents))}
        return path not in self.dirs and not ancestors & set(self.model)

    def _write(self, path: str, payload: bytes, append: bool) -> None:
        written = self.fs.write(path, payload, append=append)
        assert (written is not None) == self._writable(path)
        if written is None:
            return
        self.model[path] = (self.model.get(path, b"") if append else b"") + payload
        parents = path.split("/")
        self.dirs.update("/".join(parents[:end]) for end in range(3, len(parents)))

    @rule(name=names, payload=payloads)
    def write(self, name, payload):
        self._write(f"/tmp/{name}", payload, append=False)

    @rule(name=names, payload=payloads)
    def append(self, name, payload):
        self._write(f"/tmp/{name}", payload, append=True)

    @rule(name=names)
    def delete(self, name):
        path = f"/tmp/{name}"
        existed_model = path in self.model
        existed_fs = self.fs.delete(path)
        assert existed_fs == existed_model
        self.model.pop(path, None)

    @rule()
    def delete_tree(self):
        doomed = self.fs.delete_tree("/tmp/deep")
        expected = {p for p in self.model if p.startswith("/tmp/deep/")}
        assert set(doomed) == expected
        for path in expected:
            del self.model[path]
        self.dirs.discard("/tmp/deep")

    @invariant()
    def contents_agree(self):
        for path, payload in self.model.items():
            assert self.fs.read(path) == payload
        for name in ("a", "b", "c"):
            path = f"/tmp/{name}"
            if path not in self.model:
                assert self.fs.read(path) is None

    @invariant()
    def files_and_directories_apart(self):
        for path in self.model:
            assert self.fs.is_file(path) and not self.fs.is_dir(path)
        for path in self.dirs:
            assert self.fs.is_dir(path) and not self.fs.is_file(path)

    @invariant()
    def baseline_untouched(self):
        assert self.fs.is_file("/etc/passwd")


TestFilesystemMachine = FilesystemMachine.TestCase
