"""Seeded API load model: a load test as a pure function of its inputs.

:class:`ServiceLoadModel` plays the role the fault plans play for the
simulation: it compiles a deterministic request schedule — which client
asks which query at which tick, which requests stall, vanish, arrive
malformed or stampede — *before* dispatching anything, keyed off a
dedicated ``RngTree`` branch.  Dispatch then runs each tick's requests
concurrently through :meth:`QueryService.handle` (``asyncio.gather`` in
schedule order, so the interleaving is deterministic too) and records
one ledger entry per request.

Thundering herds reuse the flood machinery: a herd tick's burst is
drawn through :class:`repro.faults.flood.FloodGenerator` — the same
generator that models scan floods at the ingest boundary models client
stampedes at the serving boundary, with ticks mapped to synthetic days.

The resulting :class:`LoadTestReport` carries the full request-outcome
ledger and a digest over it; replaying the same ``(seed, config,
policy)`` produces a byte-identical ledger (``tests/test_service.py``
pins this), which is what makes overload behaviour assertable in tier-1
without real sockets.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass, field
from datetime import date

from repro.faults.plan import FloodFaults
from repro.faults.flood import FloodGenerator
from repro.faults.service import (
    ServiceFaults,
    compile_request_plan,
    compile_tick_plan,
)
from repro.service.core import (
    KIND_AGGREGATE,
    KIND_COUNT,
    KIND_COUNT_BY,
    KIND_DISTINCT,
    KIND_STATUS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_STATUS,
    QueryService,
    Request,
    Response,
)
from repro.util.rng import RngTree

#: Ticks map to synthetic days for the flood generator's day-keyed
#: arrival streams (any fixed epoch works; this one is arbitrary).
_TICK_EPOCH_ORDINAL = date(2023, 1, 1).toordinal()

#: The canonical query mix — deliberately small so repeated-query load
#: has a high natural repeat rate (the cache-hit-ratio floor's shape).
#: The ``_TICK_DAY`` sentinel is replaced with the tick's synthetic day
#: at schedule time: one always-fresh query per pool pass, so cache
#: misses (and therefore injected store errors) keep reaching the store
#: throughout a run instead of only on the first tick.
_TICK_DAY = "@tick-day"
_QUERY_POOL: tuple[tuple[str, dict], ...] = (
    (KIND_AGGREGATE, {}),
    (KIND_COUNT, {}),
    (KIND_COUNT_BY, {"by": "day"}),
    (KIND_COUNT_BY, {"by": "rule_label"}),
    (KIND_DISTINCT, {"by": "sensor_id"}),
    (KIND_COUNT, {"day": _TICK_DAY}),
)

#: The one hot query every herd client stampedes.
_HOT_QUERY: tuple[str, dict] = (KIND_COUNT_BY, {"by": "rule_label"})

#: Clients in one thundering-herd burst (the flood generator's burst
#: size).
HERD_CLIENTS = 16

#: Virtual seconds the service clock advances between ticks (token
#: refill).
TICK_ADVANCE_S = 1.0

#: What a malformed request mutates into: unknown kind, then unknown
#: filter column, alternating on the ordinal.
_MALFORMED = (
    ("bogus-kind", {}),
    (KIND_COUNT, {"no_such_column": 1}),
)


@dataclass(frozen=True)
class PlannedRequest:
    """One schedule slot: the request plus its compiled faults."""

    tick: int
    ordinal: int
    request: Request
    stall_s: float = 0.0
    disconnect: bool = False
    store_error: bool = False
    herd: bool = False


@dataclass
class LoadTestReport:
    """The request-outcome ledger one load-model run produces."""

    seed: int
    ticks: int
    clients: int
    requests_per_tick: int
    faults: str  #: repr of the ServiceFaults driving the run
    policy: str  #: repr of the ServicePolicy the service ran under
    entries: list[dict] = field(default_factory=list)
    total: int = 0
    ok: int = 0
    stale: int = 0
    rejected: dict[str, int] = field(default_factory=dict)
    #: Requests that resolved to anything outside the contract — must
    #: be zero while any snapshot exists (asserted by the ``service``
    #: marker tests).
    unserved: int = 0
    cache_hit_ratio: float = 0.0
    cache_lookup_hit_ratio: float = 0.0
    stale_rate: float = 0.0

    def digest(self) -> str:
        """SHA-256 over the canonical ledger: replay equality in one
        comparison."""
        canonical = json.dumps(
            {
                "seed": self.seed,
                "ticks": self.ticks,
                "clients": self.clients,
                "requests_per_tick": self.requests_per_tick,
                "faults": self.faults,
                "policy": self.policy,
                "entries": self.entries,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ticks": self.ticks,
            "clients": self.clients,
            "requests_per_tick": self.requests_per_tick,
            "faults": self.faults,
            "policy": self.policy,
            "total": self.total,
            "ok": self.ok,
            "stale": self.stale,
            "rejected": dict(sorted(self.rejected.items())),
            "unserved": self.unserved,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "cache_lookup_hit_ratio": round(self.cache_lookup_hit_ratio, 4),
            "stale_rate": round(self.stale_rate, 4),
            "ledger_digest": self.digest(),
        }


@dataclass(frozen=True)
class ServiceLoadModel:
    """One deterministic load scenario against a :class:`QueryService`."""

    seed: int = 0
    clients: int = 6
    ticks: int = 20
    requests_per_tick: int = 8
    faults: ServiceFaults = field(default_factory=ServiceFaults)

    def schedule(self) -> list[PlannedRequest]:
        """Compile the full request schedule — every draw happens here,
        before dispatch, so outcomes cannot depend on interleaving."""
        tree = RngTree(self.seed).child("service", "load")
        herd_generator = FloodGenerator(
            faults=FloodFaults(
                burst_probability=1.0,
                burst_sessions=HERD_CLIENTS,
            ),
            tree=tree.child("herd"),
        )
        planned: list[PlannedRequest] = []
        for tick in range(self.ticks):
            tick_plan = compile_tick_plan(self.faults, tree, tick)
            mix = tree.rand_for(tick, "mix")
            requests: list[tuple[str, str, dict, str]] = []
            for _ in range(self.requests_per_tick):
                client = f"client-{mix.randrange(self.clients)}"
                if mix.random() < 0.125:
                    requests.append(
                        (client, KIND_STATUS, {}, PRIORITY_STATUS)
                    )
                    continue
                kind, params = _QUERY_POOL[mix.randrange(len(_QUERY_POOL))]
                params = dict(params)
                if params.get("day") == _TICK_DAY:
                    params["day"] = date.fromordinal(
                        _TICK_EPOCH_ORDINAL + tick
                    ).isoformat()
                priority = (
                    PRIORITY_HIGH if mix.random() < 0.3 else PRIORITY_LOW
                )
                requests.append((client, kind, params, priority))
            if tick_plan.herd:
                day = date.fromordinal(_TICK_EPOCH_ORDINAL + tick)
                kind, params = _HOT_QUERY
                for _, _, intent in herd_generator.arrivals(day, 1):
                    requests.append(
                        (
                            f"herd-{intent.client_ip}",
                            kind,
                            dict(params),
                            PRIORITY_HIGH,
                        )
                    )
            for ordinal, (client, kind, params, priority) in enumerate(
                requests
            ):
                plan = compile_request_plan(self.faults, tree, tick, ordinal)
                if plan.malformed:
                    kind, params = _MALFORMED[ordinal % len(_MALFORMED)]
                    params = dict(params)
                store_error = (
                    tick_plan.error_at_request is not None
                    and tick_plan.error_at_request
                    <= ordinal
                    < tick_plan.error_at_request + tick_plan.error_run
                )
                planned.append(
                    PlannedRequest(
                        tick=tick,
                        ordinal=ordinal,
                        request=Request(
                            client_id=client,
                            kind=kind,
                            params=params,
                            priority=priority,
                        ),
                        stall_s=plan.stall_s,
                        disconnect=plan.disconnect,
                        store_error=store_error,
                        herd=ordinal >= self.requests_per_tick,
                    )
                )
        return planned

    async def run(self, service: QueryService) -> LoadTestReport:
        """Dispatch the schedule and collect the outcome ledger."""
        from repro.faults.service import RequestFaultPlan

        report = LoadTestReport(
            seed=self.seed,
            ticks=self.ticks,
            clients=self.clients,
            requests_per_tick=self.requests_per_tick,
            faults=repr(self.faults),
            policy=repr(service.policy),
        )
        schedule = self.schedule()
        by_tick: dict[int, list[PlannedRequest]] = {}
        for slot in schedule:
            by_tick.setdefault(slot.tick, []).append(slot)
        for tick in range(self.ticks):
            slots = by_tick.get(tick, [])
            results = await asyncio.gather(
                *(
                    service.handle(
                        slot.request,
                        plan=RequestFaultPlan(
                            stall_s=slot.stall_s,
                            disconnect=slot.disconnect,
                            malformed=False,  # already applied in schedule
                        ),
                        store_error=slot.store_error,
                    )
                    for slot in slots
                ),
                return_exceptions=True,
            )
            for slot, outcome in zip(slots, results):
                report.total += 1
                if not isinstance(outcome, Response):
                    report.unserved += 1
                    report.entries.append(
                        {
                            "tick": slot.tick,
                            "ordinal": slot.ordinal,
                            "client": slot.request.client_id,
                            "kind": slot.request.kind,
                            "outcome": "unserved",
                            "error": repr(outcome),
                        }
                    )
                    continue
                if outcome.outcome == "ok":
                    report.ok += 1
                elif outcome.outcome == "stale":
                    report.stale += 1
                else:
                    reason = outcome.reason or "unknown"
                    report.rejected[reason] = (
                        report.rejected.get(reason, 0) + 1
                    )
                report.entries.append(
                    {
                        "tick": slot.tick,
                        "ordinal": slot.ordinal,
                        "client": slot.request.client_id,
                        "kind": slot.request.kind,
                        "herd": slot.herd,
                        "outcome": outcome.outcome,
                        "reason": outcome.reason,
                        "version": outcome.version,
                        "stale": outcome.stale,
                        "cache": outcome.cache,
                        "disconnected": slot.disconnect,
                    }
                )
            service.advance(TICK_ADVANCE_S)
        report.cache_hit_ratio = service.cache.hit_ratio
        report.cache_lookup_hit_ratio = service.cache.lookup_hit_ratio
        report.stale_rate = (
            report.stale / report.total if report.total else 0.0
        )
        return report


def run_load_test(
    service: QueryService, model: ServiceLoadModel
) -> LoadTestReport:
    """Synchronous wrapper: one fresh event loop, one report."""
    return asyncio.run(model.run(service))
