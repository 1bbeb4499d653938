"""Read-through LRU cache with single-flight stampede suppression.

Entries are keyed on the normalized query the service parses each
request into — ``(snapshot_version, kind, by, sorted filter items)``:
a query's answer is immutable for the lifetime of the snapshot version
that produced it, so there is no invalidation protocol at all — a new
version simply starts missing, and old entries age out of the LRU.

Single flight: when N identical queries arrive concurrently (the
thundering-herd profile), the first one registers a future for the key,
yields once (the coalescing window) and then runs the load in its own
task; the other N-1 find the future and await it — one store hit total,
counted as one miss plus N-1 ``coalesced``.  A failed load caches
nothing and raises its error in every caller that waited on it, and
each of them records the failure as its own: a herd of five behind one
failed store read reports five store errors to the service's breaker,
which opens at three.  If the first caller is cancelled before its load
is done, a task takes the load over and calls the loader, so the
callers that coalesced onto it are still answered; a load whose first
caller left is not cached.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from typing import Awaitable, Callable

from repro import telemetry


def _settle(future: asyncio.Future, load: asyncio.Future) -> None:
    """Resolve ``future`` as the finished ``load`` ended."""
    if load.cancelled():
        future.cancel()
    elif (error := load.exception()) is not None:
        _fail(future, error)
    else:
        future.set_result(load.result())


def _fail(future: asyncio.Future, error: BaseException) -> None:
    """Fail ``future``; its waiters, if any, raise ``error`` themselves,
    so a load nobody coalesced onto logs nothing."""
    future.set_exception(error)
    future.exception()


class QueryCache:
    """The service's read-through LRU, single-flight included."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: Loads whose first caller was cancelled, held until they finish.
        self._handed_off: set[asyncio.Task] = set()
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
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self.hits += 1
            telemetry.count("service.cache.hits")
            return entries[key], "hit"
        inflight = self._inflight
        pending = inflight.get(key)
        if pending is not None:
            self.coalesced += 1
            telemetry.count("service.cache.coalesced")
            return await asyncio.shield(pending), "coalesced"
        self.misses += 1
        telemetry.count("service.cache.misses")
        pending = inflight[key] = asyncio.get_running_loop().create_future()
        try:
            await asyncio.sleep(0)  # identical queries coalesce meanwhile
            value = await loader()
        except asyncio.CancelledError:
            del inflight[key]
            load = asyncio.ensure_future(loader())
            self._handed_off.add(load)
            load.add_done_callback(self._handed_off.discard)
            load.add_done_callback(lambda load: _settle(pending, load))
            raise
        except BaseException as error:
            del inflight[key]
            _fail(pending, error)
            raise
        del inflight[key]
        pending.set_result(value)
        entries[key] = value
        while len(entries) > self.capacity:
            entries.popitem(last=False)
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
