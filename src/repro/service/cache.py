"""Read-through LRU cache with single-flight stampede suppression.

Entries are keyed on ``(snapshot_version, query_fingerprint)``: a
query's answer is immutable for the lifetime of the snapshot version
that produced it, so there is no invalidation protocol at all — a new
version simply starts missing, and old entries age out of the LRU.

Single flight: when N identical queries arrive concurrently (the
thundering-herd profile), the first one starts the store load as a
task and the other N-1 await that same task — one store hit total,
counted as one miss plus N-1 ``coalesced``.  A failed load propagates
the error to every waiter (so the breaker sees one failure, not N) and
caches nothing.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from collections import OrderedDict
from typing import Awaitable, Callable

from repro import telemetry


def query_fingerprint(kind: str, params: dict) -> str:
    """Canonical fingerprint of one query: kind + sorted-key params."""
    canonical = json.dumps(
        {"kind": kind, "params": params},
        sort_keys=True,
        separators=(",", ":"),
        default=str,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class QueryCache:
    """The service's read-through LRU, single-flight included."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._inflight: dict[tuple, asyncio.Task] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    async def get_or_load(
        self, key: tuple, loader: Callable[[], Awaitable[object]]
    ) -> tuple[object, str]:
        """The cached value for ``key``, loading through on a miss.

        Returns ``(value, served_from)`` where ``served_from`` is
        ``"hit"``, ``"miss"`` or ``"coalesced"`` — the ledger records
        it per request, and the load report's ``cache_hit_ratio`` and
        ``cache_lookup_hit_ratio`` (both held at ≥ 0.9 on repeated-query
        load by the ``service`` tests) are computed from these counters.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            telemetry.count("service.cache.hits")
            return self._entries[key], "hit"
        task = self._inflight.get(key)
        if task is not None:
            self.coalesced += 1
            telemetry.count("service.cache.coalesced")
            return await asyncio.shield(task), "coalesced"
        self.misses += 1
        telemetry.count("service.cache.misses")
        task = asyncio.ensure_future(loader())
        self._inflight[key] = task
        try:
            value = await asyncio.shield(task)
        finally:
            self._inflight.pop(key, None)
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            telemetry.count("service.cache.evictions")
        return value, "miss"

    @property
    def hit_ratio(self) -> float:
        """Hits (including coalesced waits) over all lookups."""
        total = self.hits + self.misses + self.coalesced
        if not total:
            return 1.0
        return (self.hits + self.coalesced) / total

    @property
    def lookup_hit_ratio(self) -> float:
        """Hits over hits plus misses: how often a lookup found its entry
        kept, with coalesced waits (which need no kept entry) left out."""
        total = self.hits + self.misses
        if not total:
            return 1.0
        return self.hits / total
