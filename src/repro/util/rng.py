"""Deterministic hierarchical random number streams.

The simulator derives thousands of independent random streams (one per
bot per day, per IP pool, per malware family, ...).  To make every run a
pure function of the master seed — regardless of iteration order — each
stream is keyed by a path of names and derived via SHA-256, never by
sharing a mutable ``random.Random`` across components.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable


def _feed(hasher, names: Iterable[object]):
    """Append names to a stream path's SHA-256 state and return the state.

    With :func:`_path_hasher` and :func:`_seed_of` this is the one byte
    encoding of a stream path ``(master, *names)``: the master seed's
    decimal text, then ``"\\x00" + str(name)`` per name, all UTF-8.
    """
    for name in names:
        hasher.update(b"\x00" + str(name).encode("utf-8"))
    return hasher


def _path_hasher(master: int, names: Iterable[object]):
    """The SHA-256 state of the stream path ``(master, *names)``."""
    return _feed(hashlib.sha256(str(master).encode("utf-8")), names)


def _seed_of(hasher) -> int:
    """The seed of a hashed path: its digest's first 8 bytes, big-endian."""
    return int.from_bytes(hasher.digest()[:8], "big")


def derive_seed(master: int, *names: object) -> int:
    """Derive a 64-bit seed from a master seed and a path of names."""
    return _seed_of(_path_hasher(master, names))


class SeedPrefix:
    """The hashed head of a stream path, for many streams that share it.

    ``tree.prefix(*head).rand(tail)`` is ``tree.child(*head, tail).rand()``:
    the head is hashed once, and each call copies that SHA-256 state,
    appends only the tail and seeds a fresh generator.
    """

    __slots__ = ("_hasher",)

    def __init__(self, master: int, names: Iterable[object]) -> None:
        self._hasher = _path_hasher(master, names)

    def rand(self, name: object) -> random.Random:
        """Return a fresh ``random.Random`` for the path ``head + (name,)``."""
        return random.Random(_seed_of(_feed(self._hasher.copy(), (name,))))


class RngTree:
    """A node in a deterministic tree of random streams.

    ``child(*names)`` returns a new :class:`RngTree` whose streams are
    independent of the parent's and of any sibling's.  ``rand()`` returns
    a ``random.Random`` seeded for this node; repeated calls return fresh
    generators with the same seed (so a node's stream is replayable).
    """

    def __init__(self, seed: int, path: tuple[str, ...] = ()) -> None:
        self._seed = seed
        self._path = path

    @property
    def path(self) -> tuple[str, ...]:
        return self._path

    @property
    def seed(self) -> int:
        return derive_seed(self._seed, *self._path)

    def child(self, *names: object) -> "RngTree":
        """Return the child node at ``names`` below this node."""
        return RngTree(self._seed, self._path + tuple(str(n) for n in names))

    def rand(self) -> random.Random:
        """Return a fresh ``random.Random`` for this node."""
        return random.Random(self.seed)

    def rand_for(self, *names: object) -> random.Random:
        """Return ``child(*names).rand()`` without building the child node.

        The hot-path twin of :meth:`child` + :meth:`rand`: seed
        derivation is identical (one SHA-256 over the concatenated
        path), but no intermediate ``RngTree`` or path tuple of strings
        is allocated.  Used for per-record streams (transport retry
        jitter, admission coin flips) where the allocation shows up in
        profiles.
        """
        return random.Random(derive_seed(self._seed, *self._path, *names))

    def prefix(self, *names: object) -> SeedPrefix:
        """The seed prefix of ``child(*names)``, for streams below it.

        ``prefix(*names).rand(tail)`` equals ``child(*names, tail).rand()``
        and hashes ``names`` once instead of on every call; the day loop
        keeps one per (stream kind, bot) for its per-day streams.
        """
        return SeedPrefix(self._seed, (*self._path, *names))

    def coin(self, *names: object) -> float:
        """One deterministic float in ``[0, 1)`` from the child stream.

        Exactly ``child(*names).rand().random()`` — the first draw of
        the derived stream — with the intermediate allocations of
        :meth:`rand_for` skipped too.
        """
        return random.Random(
            derive_seed(self._seed, *self._path, *names)
        ).random()

    def randint(self, low: int, high: int) -> int:
        """Convenience: one deterministic integer in ``[low, high]``."""
        return self.rand().randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        """Convenience: one deterministic float in ``[low, high)``."""
        return self.rand().uniform(low, high)

    def choice(self, items: list) -> object:
        """Convenience: one deterministic choice from ``items``."""
        if not items:
            raise IndexError("cannot choose from an empty sequence")
        return self.rand().choice(items)


def batched_random(rng: random.Random, n: int) -> list[float]:
    """Draw ``n`` floats from ``rng`` in one pass.

    Sequence-equivalent to ``[rng.random() for _ in range(n)]`` — the
    generator state advances identically — but the method is bound once,
    which matters when the day loop batches thousands of draws.
    """
    draw = rng.random
    return [draw() for _ in range(n)]


def batched_uniform(
    rng: random.Random, n: int, low: float, high: float
) -> list[float]:
    """Draw ``n`` uniforms in ``[low, high)``; sequence-equivalent to
    ``[rng.uniform(low, high) for _ in range(n)]``."""
    draw = rng.random
    span = high - low
    return [low + draw() * span for _ in range(n)]


def batched_randrange(rng: random.Random, n: int, stop: int) -> list[int]:
    """Draw ``n`` integers in ``[0, stop)``; sequence-equivalent to
    ``[rng.randrange(stop) for _ in range(n)]``."""
    draw = rng.randrange
    return [draw(stop) for _ in range(n)]


def poisson(rng: random.Random, lam: float) -> int:
    """Sample a Poisson-distributed count.

    Uses Knuth's method for small ``lam`` and a normal approximation for
    large ``lam`` (exact enough for workload generation and far faster).
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if lam == 0:
        return 0
    if lam > 50:
        value = int(round(rng.gauss(lam, lam ** 0.5)))
        return max(0, value)
    limit = 2.718281828459045 ** (-lam)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


class WeightedTable:
    """A weighted choice over fixed ``(item, weight)`` pairs, built once.

    Holds the items with positive weight, their running cumulative
    weights and the total, so a draw is one ``rng.random()`` and a
    bisection.  It picks exactly what a linear scan picks: the total is
    the built-in ``sum`` over the same weights in the same order (from
    Python 3.12 that sum is compensated, so it need not equal the last
    cumulative value), the cumulative values come from the same
    left-to-right additions from ``0.0``, ``bisect_left`` finds the
    first item with ``point <= cumulative``, and a point beyond the last
    cumulative value picks the last item.
    """

    __slots__ = ("items", "cumulative", "total")

    def __init__(self, weighted: Iterable[tuple[object, float]]) -> None:
        pairs = [(item, weight) for item, weight in weighted if weight > 0]
        if not pairs:
            raise ValueError("no items with positive weight")
        weights = [weight for _, weight in pairs]
        self.items = tuple(item for item, _ in pairs)
        self.cumulative = tuple(accumulate(weights, initial=0.0))[1:]
        self.total = sum(weights)

    def pick(self, rng: random.Random) -> object:
        """One item, drawn with a single ``rng.random()``."""
        index = bisect_left(self.cumulative, rng.random() * self.total)
        items = self.items
        return items[index] if index < len(items) else items[-1]
