"""The query/status service core: snapshots in, contractual responses out.

One :class:`QueryService` serves the newest published
:class:`~repro.service.snapshot.Snapshot` (and, when an indexed store
is attached, arbitrary filtered queries against it) behind the full
overload-protection ladder, every rung on the *virtual* clock:

1. **validation** — malformed queries (unknown kind, unknown filter
   column) are rejected before they can touch anything;
2. **per-client token buckets**
   (:class:`repro.overload.tokenbucket.ClientRateLimiter`) — the
   status endpoint is exempt, so health stays observable while a
   client is clipped;
3. **bounded request queue → admission gate** — queue depth maps to
   the backpressure scale of :mod:`repro.overload.admission`:
   ``PRESSURE_HIGH`` rejects low-priority queries,
   ``PRESSURE_CRITICAL`` serves the status endpoint only, a full queue
   rejects outright;
4. **request deadlines** — a slow-loris stall that would overrun
   :data:`DEADLINE_S` is rejected with ``deadline`` before any answer
   is formed;
5. **service↔store circuit breaker**
   (:class:`repro.stream.breaker.CircuitBreaker`, seeded probe
   schedule) — store failures open it and the service degrades to the
   last-good snapshot, marked ``stale`` with the version served; never
   a 500 while any snapshot exists.

Each request is parsed once, into its ``by`` and its normalized
filters (:func:`repro.store.base.normalize_filters`); the cache key, the
store call and the stale fallback all read that parse.  An admitted
request suspends exactly once, after the queue push and the level
checks: the requests gathered in one tick are all admitted, each seeing
the queue depth of those before it, before any of them is answered, and
the answer then runs inline (a cache miss yields once more, inside the
cache, for its coalescing window).

The response contract (pinned by ``tests/test_service.py``): every
request resolves to exactly one of ``ok``, ``rejected(reason)`` or
``stale(version)``.  All ``service.*`` telemetry is merge-only
(engine-class): the service only exists when attached, so its counters
are excluded from the comparable view.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Mapping

from repro import telemetry
from repro.faults.service import INERT_REQUEST_PLAN, RequestFaultPlan
from repro.overload.admission import PRESSURE_CRITICAL, PRESSURE_HIGH
from repro.overload.tokenbucket import ClientRateLimiter
from repro.service.cache import QueryCache
from repro.service.snapshot import Snapshot, SnapshotPublisher
from repro.store.base import (
    GROUPABLE,
    INDEX_COLUMNS,
    StoreError,
    normalize_filters,
)
from repro.stream.breaker import CLOSED, CircuitBreaker
from repro.stream.queues import BoundedStreamQueue
from repro.util import preset
from repro.util.rng import RngTree

#: Request priorities (the admission gate's shedding order).
PRIORITY_STATUS = "status"
PRIORITY_HIGH = "high"
PRIORITY_LOW = "low"

#: Query kinds the service understands.
KIND_STATUS = "status"
KIND_AGGREGATE = "aggregate"
KIND_COUNT = "count"
KIND_COUNT_BY = "count_by"
KIND_DISTINCT = "distinct"
KINDS = (KIND_STATUS, KIND_AGGREGATE, KIND_COUNT, KIND_COUNT_BY, KIND_DISTINCT)

#: Response outcomes — the whole contract.
OUTCOME_OK = "ok"
OUTCOME_REJECTED = "rejected"
OUTCOME_STALE = "stale"

#: Virtual seconds the service clock advances per handled request.
TICK_S = 0.05
#: Virtual seconds a request may stall before it is rejected.
DEADLINE_S = 2.0


@dataclass(frozen=True)
class ServicePolicy:
    """The overload ladder's budgets, in one frozen value.

    A load test is a pure function of ``(seed, config, policy)``; the
    policy is this object plus the :class:`ServiceFaults` the load
    model drives, so ``repr()`` of both pins the run.  The request
    deadline (:data:`DEADLINE_S`), the clock tick (:data:`TICK_S`) and
    the store breaker's thresholds (the :mod:`repro.stream.breaker`
    constants) are the same under every policy.
    """

    cache_capacity: int = 256
    queue_capacity: int = 64
    high_watermark: int = 48
    rate_per_s: float = 50.0
    burst: float = 20.0

    @classmethod
    def from_name(cls, name: str) -> "ServicePolicy":
        """Resolve a named policy (CLI ``--service-policy``)."""
        return preset(SERVICE_POLICY_PRESETS, name, "service policy")


#: The service policies: ``default`` (production-shaped) and ``strict``
#: (tiny budgets, the preset the overload tests clip against).
SERVICE_POLICY_PRESETS = {
    "default": ServicePolicy(),
    "strict": ServicePolicy(
        cache_capacity=32,
        queue_capacity=8,
        high_watermark=6,
        rate_per_s=2.0,
        burst=4.0,
    ),
}


@dataclass(frozen=True)
class Request:
    """One client query entering the ladder."""

    client_id: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    priority: str = PRIORITY_LOW


@dataclass(frozen=True)
class Response:
    """The contractual reply: ``ok``, ``rejected(reason)`` or
    ``stale(version)`` — nothing else ever leaves the service."""

    outcome: str
    payload: Mapping | list | None = None
    reason: str | None = None
    version: int | None = None
    stale: bool = False
    #: Cache attribution for store-backed answers (hit/miss/coalesced).
    cache: str | None = None

    def as_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "payload": self.payload,
            "reason": self.reason,
            "version": self.version,
            "stale": self.stale,
            "cache": self.cache,
        }


class QueryService:
    """One service instance over a publisher (live) or a store (at rest).

    The service is a pure *reader*: it never mutates the collector, the
    publisher or the store, which is what makes attaching it
    digest-neutral by construction — the differential suite then proves
    it byte for byte.
    """

    def __init__(
        self,
        *,
        publisher: SnapshotPublisher | None = None,
        snapshot: Snapshot | None = None,
        store=None,
        policy: ServicePolicy | None = None,
        seed: int = 0,
    ) -> None:
        if publisher is None and snapshot is None and store is None:
            raise ValueError(
                "a QueryService needs a publisher, a snapshot or a store"
            )
        self.policy = policy if policy is not None else ServicePolicy()
        self.publisher = publisher
        self._snapshot = snapshot
        self.store = store
        if self._snapshot is None and publisher is None and store is not None:
            self._snapshot = Snapshot.from_store(store)
        tree = RngTree(seed).child("service")
        self.limiter = ClientRateLimiter(
            rate_per_s=self.policy.rate_per_s, burst=self.policy.burst
        )
        self.queue = BoundedStreamQueue(
            name="service-requests",
            capacity=self.policy.queue_capacity,
            high_watermark=self.policy.high_watermark,
        )
        self.breaker = CircuitBreaker(
            stage="store", tree=tree.child("breaker")
        )
        self.cache = QueryCache(self.policy.cache_capacity)
        self._now = 0.0
        self._event = 0
        self.requests = 0
        self.served = 0
        self.stale_served = 0
        self.deadline_cancelled = 0
        self.disconnects = 0
        self.store_errors = 0
        self.rejected: dict[str, int] = {}

    # ------------------------------------------------------------------
    # virtual clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        """Advance the virtual clock (the load model's per-tick step)."""
        self._now += dt

    # ------------------------------------------------------------------
    # current state
    # ------------------------------------------------------------------
    def current_snapshot(self) -> Snapshot | None:
        if self.publisher is not None and self.publisher.latest is not None:
            return self.publisher.latest
        return self._snapshot

    def health(self) -> dict:
        """The service-side counters the status endpoint reports."""
        return {
            "requests": self.requests,
            "served": self.served,
            "stale_served": self.stale_served,
            "rejected": dict(sorted(self.rejected.items())),
            "deadline_cancelled": self.deadline_cancelled,
            "disconnects": self.disconnects,
            "store_errors": self.store_errors,
            "breaker": {
                "state": self.breaker.state,
                "trips": self.breaker.trips,
            },
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "coalesced": self.cache.coalesced,
                "hit_ratio": round(self.cache.hit_ratio, 4),
            },
            "rate_limiter": {
                "allowed": self.limiter.allowed,
                "limited": self.limiter.limited,
            },
            "queue": {
                "peak_depth": self.queue.peak_depth,
                "pushed": self.queue.pushed,
            },
        }

    # ------------------------------------------------------------------
    # the ladder
    # ------------------------------------------------------------------
    def _reject(self, reason: str) -> Response:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1
        telemetry.count(f"service.rejected.{reason}")
        return Response(outcome=OUTCOME_REJECTED, reason=reason)

    def _validate(self, request: Request) -> tuple[str | None, dict] | None:
        """The malformed-query gate: the request's ``by`` and its
        normalized filters, or None when it is malformed."""
        if request.kind not in KINDS:
            return None
        params = dict(request.params)
        by = params.pop("by", None)
        if request.kind in (KIND_COUNT_BY, KIND_DISTINCT):
            if by not in GROUPABLE:
                return None
        elif by is not None:
            return None
        for name in params:
            if name not in INDEX_COLUMNS:
                return None
        return by, normalize_filters(params)

    async def handle(
        self,
        request: Request,
        *,
        plan: RequestFaultPlan = INERT_REQUEST_PLAN,
        store_error: bool = False,
    ) -> Response:
        """Run one request down the ladder to a contractual response.

        ``plan`` carries the seeded client faults the load model
        compiled for this request; ``store_error`` injects one failing
        store read (the breaker-open scenario).  Both default inert —
        the real frontend calls with defaults.
        """
        self._event += 1
        self._now += TICK_S
        started = self._now
        self.requests += 1
        telemetry.count("service.requests")
        if plan.disconnect:
            # The client vanishes before reading; the response below is
            # still formed (the *write* is what fails) and the ledger
            # records the outcome with the disconnect flag.
            self.disconnects += 1
            telemetry.count("service.disconnects")
        try:
            query = self._validate(request)
            if query is None:
                return self._reject("malformed")
            if request.priority != PRIORITY_STATUS and not self.limiter.allow(
                request.client_id, self._now
            ):
                return self._reject("rate-limited")
            if self.queue.full:
                return self._reject("queue-full")
            self.queue.push(request)
            try:
                level = self.queue.level()
                if level == PRESSURE_CRITICAL and request.kind != KIND_STATUS:
                    return self._reject("critical-load")
                if level == PRESSURE_HIGH and request.priority == PRIORITY_LOW:
                    return self._reject("load-shed")
                # The one suspension: the requests gathered in this tick
                # are all admitted, each seeing the queue depth of those
                # before it, before any of them is answered.
                await asyncio.sleep(0)
                if plan.stall_s > DEADLINE_S:
                    # The stall's virtual duration is known up front, so
                    # the overrun verdict is deterministic: reject before
                    # any answer is formed.
                    self.deadline_cancelled += 1
                    telemetry.count("service.deadline_cancelled")
                    return self._reject("deadline")
                if plan.stall_s:
                    self._now += plan.stall_s
                response = await self._answer(request.kind, *query, store_error)
                if response.outcome == OUTCOME_OK:
                    self.served += 1
                    telemetry.count("service.served")
                return response
            finally:
                self.queue.pop()
        finally:
            telemetry.observe(
                "service.latency_s",
                self._now - started,
                telemetry.BACKOFF_BOUNDS,
            )

    # ------------------------------------------------------------------
    # answering
    # ------------------------------------------------------------------
    async def _answer(
        self,
        kind: str,
        by: str | None,
        filters: dict[str, str],
        store_error: bool,
    ) -> Response:
        snapshot = self.current_snapshot()
        if kind == KIND_STATUS:
            payload = {
                "snapshot": (
                    snapshot.status_payload() if snapshot is not None else None
                ),
                "service": self.health(),
            }
            return Response(
                outcome=OUTCOME_OK,
                payload=payload,
                version=snapshot.version if snapshot is not None else 0,
            )
        if snapshot is None:
            return self._reject("no-snapshot")
        if kind == KIND_AGGREGATE:
            return Response(
                outcome=OUTCOME_OK,
                payload=snapshot.aggregate_payload(),
                version=snapshot.version,
            )
        if self.store is None:
            payload = self._from_snapshot(kind, by, filters, snapshot)
            if payload is None:
                return self._reject("unsupported")
            return Response(
                outcome=OUTCOME_OK, payload=payload, version=snapshot.version
            )
        now = self._now
        if not self.breaker.allow(now, snapshot.day_ordinal, self._event):
            return self._stale(kind, by, filters, snapshot, "breaker-open")
        key = (snapshot.version, kind, by, tuple(sorted(filters.items())))

        async def loader():
            if store_error:
                raise StoreError(
                    "injected store fault", path=None, reason="injected"
                )
            return self._store_query(kind, by, filters)

        try:
            value, served_from = await self.cache.get_or_load(key, loader)
        except StoreError as error:
            self.store_errors += 1
            telemetry.count("service.store.errors")
            self.breaker.record_failure(
                now,
                snapshot.day_ordinal,
                self._event,
                reason=error.reason or "store-error",
            )
            return self._stale(kind, by, filters, snapshot, "store-error")
        if self.breaker.state != CLOSED:
            self.breaker.record_success(now, snapshot.day_ordinal, self._event)
        return Response(
            outcome=OUTCOME_OK,
            payload=value,
            version=snapshot.version,
            cache=served_from,
        )

    def _stale(
        self,
        kind: str,
        by: str | None,
        filters: dict[str, str],
        snapshot: Snapshot,
        reason: str,
    ) -> Response:
        """Degrade to the last-good snapshot, marked stale — the
        never-a-500 rung at the bottom of the ladder."""
        payload = self._from_snapshot(kind, by, filters, snapshot)
        self.stale_served += 1
        telemetry.count("service.stale_served")
        return Response(
            outcome=OUTCOME_STALE,
            payload=payload,
            reason=reason,
            version=snapshot.version,
            stale=True,
        )

    def _from_snapshot(
        self,
        kind: str,
        by: str | None,
        filters: dict[str, str],
        snapshot: Snapshot,
    ) -> dict | None:
        """Best-effort answer from the snapshot's precomputed aggregates."""
        if kind == KIND_COUNT:
            if not filters:
                return {"count": snapshot.sessions}
            if filters.keys() == {"day"}:
                return {"count": snapshot.by_day.get(filters["day"], 0)}
            if filters.keys() == {"rule_label"}:
                return {
                    "count": snapshot.by_label.get(filters["rule_label"], 0)
                }
            return None
        if kind == KIND_COUNT_BY and not filters:
            if by == "day":
                return dict(snapshot.by_day)
            if by == "rule_label":
                return dict(snapshot.by_label)
        return None

    def _store_query(
        self, kind: str, by: str | None, filters: dict[str, str]
    ):
        """The store round trip behind the cache (validated upstream)."""
        telemetry.count("service.store.queries")
        if kind == KIND_COUNT:
            return {"count": self.store.count(**filters)}
        if kind == KIND_COUNT_BY:
            return self.store.count_by(by, **filters)
        return self.store.distinct(by, **filters)
