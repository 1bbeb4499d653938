"""MinHash/LSH candidate pruning for the token-DLD clustering.

The paper's clustering pipeline pays one Damerau-Levenshtein
computation for every pair of *distinct* token sequences — m·(m-1)/2
of them, which is fine at the paper's 2e-5 scale and fatal at
production scale.  This module adds a sketch-based prefilter in the
style of Shamsi et al. ("Measuring and Clustering Network Attackers",
PAPERS.md):

1. Every distinct token sequence gets a **MinHash signature** over its
   token w-shingles — ``num_perm`` independent 64-bit permutations of
   the shingle space, each contributing the minimum permuted shingle
   hash.  The fraction of agreeing signature components is an unbiased
   estimator of the shingle-set Jaccard similarity.
2. Signatures are sliced into ``bands`` bands of ``rows`` rows each and
   **LSH-bucketed**: two sequences are *candidates* iff they agree on
   at least one full band.  A pair with Jaccard ``s`` collides with
   probability ``1 - (1 - s^rows)^bands`` — near 1 for similar pairs,
   near 0 for dissimilar ones.
3. Only candidate pairs (plus pairs whose :func:`dld_bounds` already
   pin the distance) pay the full DP.  Every pruned pair is recorded
   as an **upper-bound entry** (normalized DLD ≤ 1.0 always) with its
   position tracked in :attr:`ApproxDistanceMatrix.pruned`, so
   consumers can distinguish "measured 1.0" from "bounded 1.0".

**Exactness contract.**  Below :attr:`SketchConfig.min_sequences`
distinct sequences the sketch machinery is pure overhead — the DP is
cheap and the approximation risk buys nothing — so the sketch path
*bypasses* to the exact matrix, bit for bit.  The paper-scale
pipeline (≤ ``CLUSTER_SAMPLE_LIMIT`` = 400 sessions) is always below
the floor, which is how ``--mode lsh`` reproduces the exact-mode
cluster assignments and figure digests byte for byte at paper scale;
the differential suite (tests/test_cluster_differential.py)
additionally pins the *pruned* regime against the exact oracle with
the floor forced to zero.

Telemetry (all deterministic functions of config + data — see
docs/observability.md):

* ``sketch.matrix_builds`` / ``sketch.bypassed`` — activations vs
  below-floor exact fallbacks.
* ``sketch.signatures`` — distinct sequences signed.
* ``sketch.candidate_pairs`` / ``sketch.pruned_pairs`` /
  ``sketch.pinned_pairs`` — where every pair went.
* ``sketch.candidate_ratio`` — candidate fraction of all distinct
  pairs (the pruning win; the bench floor demands < 0.25 at ≥2k).
* ``sketch.recall_estimate`` — the guarantee-curve collision
  probability at :attr:`SketchConfig.close_jaccard`, i.e. the
  theoretical recall for genuinely similar pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from hashlib import blake2b

import numpy as np

from repro import telemetry
from repro.analysis.dld import dld_bounds
from repro.analysis.tokenizer import DEFAULT_TOKENIZER, TokenizerConfig

#: Value substituted for a pruned pair: the trivial normalized-DLD
#: upper bound (the DP result divided by ``max(len)`` never exceeds 1).
PRUNED_DISTANCE = 1.0

#: Distinct shingles kept in the shingle-hash cache.
SHINGLE_CACHE_LIMIT = 500_000

#: Hash fed to the permutations for the (single, post-dedup) empty
#: sequence, so every sequence has a well-defined signature.
_EMPTY_SHINGLE_HASH = int.from_bytes(
    blake2b(b"<empty-sequence>", digest_size=8).digest(), "big"
)

_shingle_cache: dict[tuple[str, ...], int] = {}


def clear_sketch_caches() -> None:
    """Drop the shingle-hash cache (tests and benchmarks)."""
    _shingle_cache.clear()


@dataclass(frozen=True)
class SketchConfig:
    """MinHash/LSH parameters for the candidate prefilter.

    Attributes:
        num_perm: signature length (permutations).  More permutations
            tighten the Jaccard estimate (σ = sqrt(s(1-s)/num_perm)).
        bands: LSH bands; must divide ``num_perm``.  ``rows`` =
            ``num_perm // bands``.  More bands / fewer rows lowers the
            similarity threshold (higher recall, more candidates).
        shingle_size: tokens per w-shingle.  2 keeps local order
            information (the quantity DLD measures) while staying
            robust to single-token edits.
        seed: seed for the permutation parameters — signatures are a
            pure function of (config, token sequence).
        min_sequences: activation floor.  Below this many *distinct*
            sequences the sketch path computes the exact matrix
            instead (see the module docstring's exactness contract).
        close_jaccard: the similarity the recall gauge is quoted at
            (pairs at least this similar are the ones clustering must
            not lose).
    """

    num_perm: int = 128
    bands: int = 64
    shingle_size: int = 2
    seed: int = 0x5EEDC0DE
    min_sequences: int = 512
    close_jaccard: float = 0.7

    def __post_init__(self) -> None:
        if self.num_perm < 2:
            raise ValueError(f"num_perm must be >= 2, got {self.num_perm}")
        if self.bands < 1 or self.num_perm % self.bands:
            raise ValueError(
                f"bands ({self.bands}) must divide num_perm ({self.num_perm})"
            )
        if self.shingle_size < 1:
            raise ValueError("shingle_size must be >= 1")

    @property
    def rows(self) -> int:
        """Signature rows per LSH band."""
        return self.num_perm // self.bands

    def collision_probability(self, jaccard: float) -> float:
        """P(candidate) for a pair with the given true Jaccard.

        The LSH guarantee curve: ``1 - (1 - s^rows)^bands``.
        """
        return 1.0 - (1.0 - jaccard**self.rows) ** self.bands

    def threshold(self) -> float:
        """The curve's inflection similarity, ``(1/bands)^(1/rows)``.

        Pairs well above it are almost surely candidates; pairs well
        below are almost surely pruned.
        """
        return (1.0 / self.bands) ** (1.0 / self.rows)

    def guaranteed_jaccard(self, dismissal_probability: float = 1e-12) -> float:
        """Similarity above which a false dismissal is (probabilistically)
        impossible: P(no band agrees) ≤ ``dismissal_probability``.

        Solving ``(1 - s^rows)^bands <= p`` for ``s``.  The no-false-
        dismissal property suite pins pairs above this curve.
        """
        return float(
            (1.0 - dismissal_probability ** (1.0 / self.bands))
            ** (1.0 / self.rows)
        )


#: The default prefilter configuration.  64 bands of 2 rows puts the
#: inflection similarity at (1/64)^(1/2) ≈ 0.125 Jaccard — deliberately
#: low, because token-DLD-close pairs can sit at modest shingle
#: Jaccard (each token edit destroys up to ``shingle_size`` shingles);
#: the recall-vs-ratio sweep in scripts/soak.py holds this point at
#: ≥0.99 close-pair recall with <0.25 candidate ratio.
DEFAULT_SKETCH_CONFIG = SketchConfig()


def _shingle_hash(shingle: tuple[str, ...]) -> int:
    """Stable 64-bit hash of one shingle (process-independent)."""
    cached = _shingle_cache.get(shingle)
    if cached is None:
        if len(_shingle_cache) > SHINGLE_CACHE_LIMIT:
            _shingle_cache.clear()
        payload = "\x1f".join(shingle).encode("utf-8", "surrogatepass")
        cached = int.from_bytes(
            blake2b(payload, digest_size=8).digest(), "big"
        )
        _shingle_cache[shingle] = cached
    return cached


def shingle_hashes(tokens: tuple[str, ...] | list[str], k: int) -> np.ndarray:
    """Sorted unique 64-bit hashes of the token w-shingles.

    Sequences shorter than ``k`` contribute their whole tuple as one
    shingle; the empty sequence gets a dedicated sentinel shingle so
    signatures are total.
    """
    n = len(tokens)
    if n == 0:
        return np.array([_EMPTY_SHINGLE_HASH], dtype=np.uint64)
    width = min(k, n)
    hashes = {
        _shingle_hash(tuple(tokens[i : i + width]))
        for i in range(n - width + 1)
    }
    return np.sort(np.fromiter(hashes, dtype=np.uint64, count=len(hashes)))


class MinHashSketcher:
    """Computes MinHash signatures under one :class:`SketchConfig`.

    Each permutation is ``h -> a*h + b (mod 2^64)`` with ``a`` odd —
    multiplication by an odd constant is a bijection of the 64-bit
    space, so every (a, b) pair is a true permutation and the minimum
    is a proper min-hash.  Parameters are drawn once from the config
    seed; two sketchers with equal configs produce identical
    signatures.
    """

    def __init__(self, config: SketchConfig = DEFAULT_SKETCH_CONFIG) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self._a = rng.integers(
            0, 2**64, size=config.num_perm, dtype=np.uint64
        ) | np.uint64(1)
        self._b = rng.integers(0, 2**64, size=config.num_perm, dtype=np.uint64)

    def signature(self, tokens: tuple[str, ...] | list[str]) -> np.ndarray:
        """The ``num_perm``-component signature of one token sequence.

        A pure function of the shingle *set*: input order of equal
        shingle sets never changes the result (permutation-stable).
        """
        hashes = shingle_hashes(tokens, self.config.shingle_size)
        # uint64 wrap-around is the modular arithmetic, deliberately.
        permuted = self._a[np.newaxis, :] * hashes[:, np.newaxis] + self._b
        return permuted.min(axis=0)

    def signatures(
        self, sequences: list[tuple[str, ...]] | list[list[str]]
    ) -> np.ndarray:
        """Stacked signatures, one row per sequence."""
        if not sequences:
            return np.empty((0, self.config.num_perm), dtype=np.uint64)
        return np.stack([self.signature(seq) for seq in sequences])

    @staticmethod
    def estimated_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Fraction of agreeing components — the Jaccard estimator."""
        return float(np.mean(sig_a == sig_b))


def lsh_candidate_pairs(
    signatures: np.ndarray, config: SketchConfig = DEFAULT_SKETCH_CONFIG
) -> list[tuple[int, int]]:
    """Sorted ``(i, j)`` pairs (i < j) sharing at least one full band.

    Pairs with identical signatures always collide (every band agrees),
    so exact shingle-set duplicates can never be pruned.
    """
    n = signatures.shape[0]
    rows = config.rows
    pairs: set[tuple[int, int]] = set()
    for band in range(config.bands):
        view = np.ascontiguousarray(
            signatures[:, band * rows : (band + 1) * rows]
        )
        buckets: dict[bytes, list[int]] = {}
        for index in range(n):
            buckets.setdefault(view[index].tobytes(), []).append(index)
        for members in buckets.values():
            if len(members) < 2:
                continue
            for x in range(len(members)):
                for y in range(x + 1, len(members)):
                    pairs.add((members[x], members[y]))
    return sorted(pairs)


def overlap_lower_bound(
    a: tuple[str, ...] | list[str], b: tuple[str, ...] | list[str]
) -> int:
    """Multiset-overlap lower bound on the token DLD.

    Every DLD operation produces at most one token of the target and
    consumes at most one token of the source (transpositions only
    rearrange), so at least ``max(len) - |multiset intersection|``
    operations are needed.  Composes with :func:`dld_bounds` — the
    combined lower bound is the max of the two — and is the exact
    quantity the MinHash Jaccard estimates probabilistically.  Disjoint
    token multisets pin the normalized distance to exactly 1.0.
    """
    from collections import Counter

    common = sum((Counter(a) & Counter(b)).values())
    return max(len(a), len(b)) - common


def combined_bounds(
    a: tuple[str, ...] | list[str], b: tuple[str, ...] | list[str]
) -> tuple[int, int]:
    """``(lower, upper)`` DLD bounds: length bounds ∘ overlap bound."""
    lower, upper = dld_bounds(a, b)
    return max(lower, overlap_lower_bound(a, b)), upper


@dataclass
class ApproxDistanceMatrix:
    """A distance matrix in which pruned pairs hold upper bounds.

    ``values`` is the full symmetric n×n matrix; entries whose
    ``pruned`` flag is True were *not* measured — they hold
    :data:`PRUNED_DISTANCE`, a sound upper bound on the true
    normalized DLD.  All other entries are bit-identical to what the
    exact pipeline would compute.  ``exact`` is True when nothing was
    pruned (the below-floor bypass), in which case ``values`` is the
    exact matrix, byte for byte.
    """

    values: np.ndarray
    pruned: np.ndarray
    distinct_sequences: int
    total_pairs: int
    candidate_pairs: int
    pinned_pairs: int
    pruned_pairs: int
    mode: str = "lsh"
    config: SketchConfig = field(default=DEFAULT_SKETCH_CONFIG, repr=False)

    @property
    def candidate_ratio(self) -> float:
        """Candidate fraction of all distinct pairs (1.0 when exact)."""
        if self.total_pairs == 0:
            return 1.0
        return self.candidate_pairs / self.total_pairs

    @property
    def exact(self) -> bool:
        return self.pruned_pairs == 0


def _dedup(
    token_sequences: list[list[str]] | list[tuple[str, ...]],
) -> tuple[list[tuple[str, ...]], list[tuple[str, ...]], dict]:
    keys = [tuple(seq) for seq in token_sequences]
    distinct: list[tuple[str, ...]] = []
    index_of: dict[tuple[str, ...], int] = {}
    for key in keys:
        if key not in index_of:
            index_of[key] = len(distinct)
            distinct.append(key)
    return keys, distinct, index_of


def _expand(
    compact: np.ndarray, keys: list, index_of: dict
) -> np.ndarray:
    mapping = np.array([index_of[key] for key in keys])
    return compact[np.ix_(mapping, mapping)]


def sketch_distance_matrix(
    token_sequences: list[list[str]] | list[tuple[str, ...]],
    config: SketchConfig = DEFAULT_SKETCH_CONFIG,
    tokenizer: TokenizerConfig = DEFAULT_TOKENIZER,
) -> ApproxDistanceMatrix:
    """The LSH-pruned normalized-DLD matrix over token sequences.

    Candidate pairs (sharing an LSH band) and bounds-pinned pairs (one
    side empty — the bounds coincide, no DP needed) get their exact
    value via the same :func:`~repro.analysis.distance.pair_distance`
    the exact pipeline uses; every other pair is recorded as a pruned
    upper-bound entry.  Below the activation floor the exact matrix is
    returned unchanged (see the module docstring).  Measured values are
    cached under ``tokenizer``'s fingerprint, like the exact pipeline's.
    """
    from repro.analysis.distance import exact_compact_matrix, pair_distance

    with telemetry.span("sketch.matrix"):
        keys, distinct, index_of = _dedup(token_sequences)
        m = len(distinct)
        total_pairs = m * (m - 1) // 2
        n = len(keys)
        registry = telemetry.active()
        if m < config.min_sequences:
            if registry is not None:
                registry.count("sketch.bypassed")
            compact = exact_compact_matrix(distinct, tokenizer.fingerprint)
            return ApproxDistanceMatrix(
                values=_expand(compact, keys, index_of),
                pruned=np.zeros((n, n), dtype=bool),
                distinct_sequences=m,
                total_pairs=total_pairs,
                candidate_pairs=total_pairs,
                pinned_pairs=0,
                pruned_pairs=0,
                mode="exact",
                config=config,
            )

        sketcher = MinHashSketcher(config)
        with telemetry.span("sketch.signatures"):
            signatures = sketcher.signatures(distinct)
        with telemetry.span("sketch.banding"):
            candidates = lsh_candidate_pairs(signatures, config)

        # Bounds-pinned pairs: an empty side makes dld_bounds coincide,
        # so the value (exactly 1.0 against anything non-empty) costs no
        # DP.  Dedup guarantees at most one empty distinct sequence.
        candidate_set = set(candidates)
        pinned: list[tuple[int, int]] = []
        empty_indices = [i for i, seq in enumerate(distinct) if not seq]
        for e in empty_indices:
            for j in range(m):
                if j == e:
                    continue
                pair = (min(e, j), max(e, j))
                if pair not in candidate_set:
                    pinned.append(pair)
        pinned = sorted(set(pinned))

        compact = np.full((m, m), PRUNED_DISTANCE, dtype=np.float64)
        np.fill_diagonal(compact, 0.0)
        pruned_compact = np.ones((m, m), dtype=bool)
        np.fill_diagonal(pruned_compact, False)

        measured = candidates + pinned
        with telemetry.span("sketch.candidate_dp"):
            values = [
                pair_distance(distinct[i], distinct[j], tokenizer.fingerprint)
                for i, j in measured
            ]
        for (i, j), value in zip(measured, values):
            compact[i, j] = value
            compact[j, i] = value
            pruned_compact[i, j] = False
            pruned_compact[j, i] = False

        pruned_pairs = total_pairs - len(candidates) - len(pinned)
        if registry is not None:
            registry.count("sketch.matrix_builds")
            registry.count("sketch.signatures", m)
            registry.count("sketch.candidate_pairs", len(candidates))
            registry.count("sketch.pinned_pairs", len(pinned))
            registry.count("sketch.pruned_pairs", pruned_pairs)
            registry.gauge(
                "sketch.candidate_ratio",
                len(candidates) / total_pairs if total_pairs else 1.0,
            )
            registry.gauge(
                "sketch.recall_estimate",
                config.collision_probability(config.close_jaccard),
            )
        return ApproxDistanceMatrix(
            values=_expand(compact, keys, index_of),
            pruned=_expand(
                pruned_compact.astype(np.uint8), keys, index_of
            ).astype(bool),
            distinct_sequences=m,
            total_pairs=total_pairs,
            candidate_pairs=len(candidates),
            pinned_pairs=len(pinned),
            pruned_pairs=pruned_pairs,
            mode="lsh",
            config=config,
        )


# ---------------------------------------------------------------------------
# Synthetic corpora for benchmarks, soak and tests
# ---------------------------------------------------------------------------

#: Template families the synthetic corpus mutates — realistic shell
#: vocabulary so tokenization and shingling behave as they do on
#: simulated sessions.
_CORPUS_TEMPLATES: tuple[tuple[str, ...], ...] = (
    ("cd", "/tmp", "wget", "<url>", "chmod", "777", "bin.sh", "./bin.sh"),
    ("curl", "-O", "<url>", "chmod", "+x", "payload", "./payload", "rm",
     "-rf", "payload"),
    ("uname", "-a", "nproc", "cat", "/proc/cpuinfo"),
    ("echo", "ok", "uname", "-s", "-v", "-n", "-r"),
    ("/bin/busybox", "cat", "/proc/self/exe", "||", "cat",
     "/proc/self/exe"),
    ("cd", "/tmp", "rm", "-rf", "*", "tftp", "-g", "-r", "loader",
     "<ip>", "./loader"),
    ("echo", "<cred>", "chpasswd", "wget", "<url>", "sh", "x.sh"),
    ("ftpget", "-u", "anonymous", "<ip>", "drop", "drop", "chmod",
     "777", "drop", "./drop"),
    ("mkdir", "-p", ".ssh", "echo", "ssh-rsa", "<blob>", ">>",
     ".ssh/authorized_keys", "chmod", "600", ".ssh/authorized_keys"),
    ("export", "LC_ALL=C", "perl", "miner.pl", "nohup", "./stx"),
    ("cat", "/proc/mounts", "echo", "<blob>", "dd", "bs=22",
     "count=1"),
    ("pkill", "-9", "xmrig", "wget", "<url>", "tar", "xzf",
     "pack.tgz", "./xmrig"),
)

#: Filler tokens the mutator splices in.
_CORPUS_FILLER: tuple[str, ...] = (
    "history", "-c", "sleep", "1", "id", "whoami", "w", "ls", "-la",
    "/var/run", "/dev/shm", "crontab", "-l", "free", "-m", "<ip>",
    "<url>", "<blob>", "2>/dev/null", "&&", "exit",
)


def synthetic_token_corpus(
    n: int, seed: int = 0, templates_used: int | None = None
) -> list[list[str]]:
    """``n`` distinct token sequences mutated from realistic templates.

    Deterministic under ``seed``.  Sequences within one template family
    are near-duplicates (high Jaccard — the pairs LSH must keep) while
    cross-family pairs share only filler tokens (the pairs LSH should
    prune), which is exactly the structure bot traffic shows after
    normalization.
    """
    rng = random.Random(seed)
    templates = _CORPUS_TEMPLATES[: templates_used or len(_CORPUS_TEMPLATES)]
    corpus: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    while len(corpus) < n:
        base = list(templates[rng.randrange(len(templates))])
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(3)
            position = rng.randrange(len(base) + (op == 0))
            if op == 0:
                base.insert(position, rng.choice(_CORPUS_FILLER))
            elif op == 1 and len(base) > 3:
                del base[position]
            else:
                base[position] = rng.choice(_CORPUS_FILLER)
        key = tuple(base)
        if key not in seen:
            seen.add(key)
            corpus.append(base)
    return corpus
