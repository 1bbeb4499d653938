"""Deterministic RNG trees, sampling helpers and batched draws."""

from __future__ import annotations

import random
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.attackers.base import Bot
from repro.attackers.orchestrator import _route_draws
from repro.attackers.dictionary import ROOT_PASSWORDS, SCOUT_CREDENTIALS
from repro.util.rng import (
    RngTree,
    WeightedTable,
    batched_random,
    batched_randrange,
    batched_uniform,
    derive_seed,
    poisson,
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_distinct_paths(self):
        assert derive_seed(7, "a", "b") != derive_seed(7, "b", "a")

    def test_distinct_masters(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_path_concatenation_is_not_ambiguous(self):
        # ("ab",) must differ from ("a", "b")
        assert derive_seed(7, "ab") != derive_seed(7, "a", "b")

    def test_pinned_value(self):
        # the byte encoding of a stream path is part of every digest
        assert derive_seed(7, "bots", "count", "mdrfckr", 738641) == (
            0x8B1B61E35DCB9790
        )

    @given(st.integers(), st.text(max_size=20))
    @settings(max_examples=50)
    def test_in_64_bit_range(self, master, name):
        value = derive_seed(master, name)
        assert 0 <= value < 2**64


class TestRngTree:
    def test_child_streams_are_independent(self):
        tree = RngTree(1)
        a = tree.child("x").rand().random()
        b = tree.child("y").rand().random()
        assert a != b

    def test_rand_is_replayable(self):
        node = RngTree(1).child("x")
        assert node.rand().random() == node.rand().random()

    def test_nested_children(self):
        tree = RngTree(1)
        assert tree.child("a", "b").seed == tree.child("a").child("b").seed

    def test_numeric_names_coerced(self):
        tree = RngTree(1)
        assert tree.child(5).seed == tree.child("5").seed

    def test_convenience_helpers(self):
        node = RngTree(3).child("n")
        assert 1 <= node.randint(1, 6) <= 6
        assert 0.0 <= node.uniform(0.0, 1.0) < 1.0
        assert node.choice([1, 2, 3]) in (1, 2, 3)

    def test_choice_empty_raises(self):
        with pytest.raises(IndexError):
            RngTree(3).child("n").choice([])


class TestPoisson:
    def test_zero_lambda(self):
        assert poisson(random.Random(0), 0.0) == 0

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            poisson(random.Random(0), -1.0)

    def test_mean_small_lambda(self):
        rng = random.Random(42)
        draws = [poisson(rng, 3.0) for _ in range(4000)]
        mean = sum(draws) / len(draws)
        assert 2.8 < mean < 3.2

    def test_mean_large_lambda(self):
        rng = random.Random(42)
        draws = [poisson(rng, 400.0) for _ in range(1000)]
        mean = sum(draws) / len(draws)
        assert 390 < mean < 410

    def test_large_lambda_never_negative(self):
        rng = random.Random(1)
        assert all(poisson(rng, 60.0) >= 0 for _ in range(500))

    @given(st.floats(min_value=0.0, max_value=30.0))
    @settings(max_examples=60)
    def test_always_non_negative_int(self, lam):
        value = poisson(random.Random(0), lam)
        assert isinstance(value, int)
        assert value >= 0


def linear_scan_choice(rng, weighted):
    """The weighted choice :class:`WeightedTable` replaced: rebuild,
    re-sum and scan the pairs on every draw (the oracle)."""
    pairs = [(item, weight) for item, weight in weighted if weight > 0]
    if not pairs:
        raise ValueError("no items with positive weight")
    total = sum(weight for _, weight in pairs)
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in pairs:
        cumulative += weight
        if point <= cumulative:
            return item
    return pairs[-1][0]


class TestWeightedTable:
    def test_respects_weights(self):
        rng = random.Random(0)
        table = WeightedTable([("a", 9.0), ("b", 1.0)])
        draws = [table.pick(rng) for _ in range(2000)]
        share_a = draws.count("a") / len(draws)
        assert 0.85 < share_a < 0.95

    def test_zero_weights_excluded(self):
        table = WeightedTable([("a", 0.0), ("b", 1.0), ("c", 0.0)])
        assert table.items == ("b",)
        rng = random.Random(0)
        assert {table.pick(rng) for _ in range(200)} == {"b"}

    def test_single_item(self):
        table = WeightedTable([("only", 0.25)])
        rng = random.Random(3)
        assert [table.pick(rng) for _ in range(50)] == ["only"] * 50

    @pytest.mark.parametrize(
        "weighted",
        [[("a", 0.0)], [], [("a", -1.0)]],
        ids=["all-zero", "empty", "negative"],
    )
    def test_no_positive_weight_raises(self, weighted):
        with pytest.raises(ValueError):
            WeightedTable(weighted)

    def test_total_is_builtin_sum_in_order(self):
        weights = [0.1] * 7 + [1e16, 1.0, -0.0, 3.3]
        table = WeightedTable(enumerate(weights))
        assert table.total == sum(w for w in weights if w > 0)

    @pytest.mark.parametrize(
        "weighted",
        [
            ROOT_PASSWORDS,
            SCOUT_CREDENTIALS,
            [("a", 0.0), ("b", 2.5), ("c", 0.0), ("d", 4.0), ("e", 0.0)],
            [("x", 1.0)],
            [(index, 0.1) for index in range(10)],
            [(index, 1e16 if index == 0 else 1.0) for index in range(20)],
        ],
        ids=["root", "scout", "zeros", "single", "tenths", "ill-conditioned"],
    )
    def test_matches_linear_scan(self, weighted):
        table = WeightedTable(weighted)
        rng, oracle_rng = random.Random(11), random.Random(11)
        for _ in range(20_000):
            assert table.pick(rng) == linear_scan_choice(oracle_rng, weighted)
        assert rng.getstate() == oracle_rng.getstate()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=30,
        ).filter(lambda weights: any(w > 0 for w in weights)),
        st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=80)
    def test_matches_linear_scan_on_generated_weights(self, weights, seed):
        weighted = list(enumerate(weights))
        table = WeightedTable(weighted)
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(50):
            assert table.pick(rng) == linear_scan_choice(oracle_rng, weighted)
        assert rng.getstate() == oracle_rng.getstate()

    def test_point_past_the_last_cumulative_picks_the_last_item(self):
        class Past:
            def random(self):
                return 1.0 + 1e-9

        weighted = [("a", 1.0), ("b", 2.0), ("c", 0.0)]
        assert WeightedTable(weighted).pick(Past()) == "b"
        assert linear_scan_choice(Past(), weighted) == "b"


class TestRngBatching:
    """Per-day batched draws ≡ per-session draw sequences.

    The serial hot path batches its draws (``_route_draws``,
    ``RngTree.rand_for``/``prefix``/``coin``, the ``batched_*``
    helpers); each must reproduce the per-session sequence exactly, for
    arbitrary counts.
    """

    @given(st.integers(), st.integers(0, 500))
    @settings(max_examples=50)
    def test_batched_random_matches_sequence(self, seed, n):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_random(a, n) == [b.random() for _ in range(n)]
        assert a.random() == b.random()  # generator state advanced equally

    @given(st.integers(), st.integers(0, 500))
    @settings(max_examples=50)
    def test_batched_uniform_matches_sequence(self, seed, n):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_uniform(a, n, 0.0, 86_400.0) == [
            b.uniform(0.0, 86_400.0) for _ in range(n)
        ]

    @given(st.integers(), st.integers(0, 500), st.integers(1, 97))
    @settings(max_examples=50)
    def test_batched_randrange_matches_sequence(self, seed, n, stop):
        a, b = random.Random(seed), random.Random(seed)
        assert batched_randrange(a, n, stop) == [
            b.randrange(stop) for _ in range(n)
        ]

    @given(
        st.integers(),
        st.lists(st.text(max_size=10), max_size=3),
        st.one_of(st.integers(), st.text(max_size=10)),
    )
    @example(-7, ["bots", "zähler", "ボット"], 738641)
    @settings(max_examples=50)
    def test_rand_for_equals_child_rand(self, seed, head, tail):
        tree = RngTree(seed).child("x")
        reference = tree.child(*head, tail).rand()
        assert tree.rand_for(*head, tail).getstate() == reference.getstate()
        assert tree.prefix(*head).rand(tail).getstate() == reference.getstate()

    @given(st.integers(0, 2**32), st.text(max_size=10))
    @settings(max_examples=50)
    def test_coin_is_first_child_draw(self, seed, name):
        tree = RngTree(seed)
        assert tree.coin(name) == tree.child(name).rand().random()

    @given(st.integers(0, 2**32), st.integers(0, 400), st.integers(1, 40))
    @settings(max_examples=50)
    def test_route_draws_match_per_session_calls(self, seed, n, fleet_size):
        """The batched route stream is the interleaved per-session one."""

        class _Probe(Bot):
            def __init__(self):  # no activity model needed here
                self.name = "probe"

        bot = _Probe()
        day = date(2023, 1, 1)
        batched_rng = random.Random(seed)
        indices, seconds = _route_draws(bot, batched_rng, n, fleet_size, day)
        reference = random.Random(seed)
        for i in range(n):
            assert indices[i] == bot.choose_honeypot_index(
                reference, fleet_size
            )
            assert seconds[i] == bot.start_seconds(reference, day)
        # Post-batch generator state is identical too.
        assert batched_rng.random() == reference.random()

    @given(st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=30)
    def test_route_draws_respect_overridden_hooks(self, seed, n):
        class _Biased(Bot):
            def __init__(self):
                self.name = "biased"

            def choose_honeypot_index(self, rng, fleet_size):
                return min(rng.randrange(fleet_size), 1)

            def start_seconds(self, rng, day):
                return rng.uniform(0, 3600)

        bot = _Biased()
        day = date(2023, 1, 1)
        indices, seconds = _route_draws(bot, random.Random(seed), n, 16, day)
        reference = random.Random(seed)
        for i in range(n):
            assert indices[i] == bot.choose_honeypot_index(reference, 16)
            assert seconds[i] == bot.start_seconds(reference, day)
