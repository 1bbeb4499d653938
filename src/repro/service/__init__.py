"""Query/status service over versioned immutable snapshots.

The stream engine turned the day loop into a supervised live pipeline;
this package is phase 2 — the read side.  At each dirty day boundary
the engine publishes a versioned immutable :class:`Snapshot` (content
digest, day ordinal, per-day/per-label aggregates, degraded-mode
timeline, ledger verdict); a :class:`QueryService` answers queries
against the newest one, backed by :mod:`repro.store` for filtered
lookups, behind the full overload-protection ladder:

* read-through LRU cache keyed ``(snapshot_version, query_fingerprint)``
  with single-flight stampede suppression (:mod:`repro.service.cache`);
* per-client token buckets, bounded request queue feeding an admission
  gate, request deadlines with cancellation, and a service↔store
  circuit breaker that degrades to the last-good snapshot marked
  ``stale`` (:mod:`repro.service.core`);
* a seeded load model (:mod:`repro.service.loadmodel`) driving the
  client fault domain (:mod:`repro.faults.service`), so a whole load
  test is a pure function of ``(seed, config, policy)`` — asserted in
  tier-1 entirely in memory, no sockets;
* an optional JSON-lines TCP frontend behind ``repro serve``
  (:mod:`repro.service.frontend`).

Everything timing-related runs on the virtual clock, and the service is
a pure reader: simulation digests, accounting and checkpoint bytes are
byte-identical with the service attached or absent (the differential
suite proves it, for live and folded snapshots).

Layering: ``service`` composes ``stream`` (snapshots, breaker, queues),
``store``, ``overload`` and ``faults`` — it sits at the ``experiments``
layer next to the CLI; nothing imports it except the CLI and tests.
"""

from __future__ import annotations

from repro.service.cache import QueryCache, query_fingerprint
from repro.service.core import (
    KINDS,
    OUTCOME_OK,
    OUTCOME_REJECTED,
    OUTCOME_STALE,
    OUTCOMES,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_STATUS,
    QueryService,
    Request,
    Response,
    ServicePolicy,
)
from repro.service.frontend import ServiceFrontend, serve
from repro.service.loadmodel import (
    LoadTestReport,
    PlannedRequest,
    ServiceLoadModel,
    run_load_test,
)
from repro.service.snapshot import (
    Snapshot,
    SnapshotPublisher,
    publish_result,
)

__all__ = [
    "KINDS",
    "LoadTestReport",
    "OUTCOME_OK",
    "OUTCOME_REJECTED",
    "OUTCOME_STALE",
    "OUTCOMES",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_STATUS",
    "PlannedRequest",
    "QueryCache",
    "QueryService",
    "Request",
    "Response",
    "ServiceFrontend",
    "ServiceLoadModel",
    "ServicePolicy",
    "Snapshot",
    "SnapshotPublisher",
    "publish_result",
    "query_fingerprint",
    "run_load_test",
    "serve",
]
