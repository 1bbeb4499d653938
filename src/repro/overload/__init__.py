"""Overload robustness: admission control, load shedding, rate limits.

The collection pipeline survives *absence* faults (outages, churn),
*transport* faults (loss, duplication) and *storage* faults (corruption,
crashes) — this package adds the fourth domain: **too much traffic**.

* :mod:`repro.overload.admission` — the bounded-ingest gate: a per-day
  fleet-wide admission budget, priority-aware deterministic load
  shedding (state-changing sessions are kept, scanner no-ops are shed
  first) and bounded per-sensor deferral queues, all accounted under
  the collector's conservation law (``admitted``/``shed``/``deferred``
  extend the ledger).
* :mod:`repro.overload.tokenbucket` — per-client token buckets on the
  virtual clock, the rate-limiting rung of the query/status service's
  overload ladder (:mod:`repro.service`).

The arrival side of overload (the seeded scan-flood generator) lives in
:mod:`repro.faults.flood` with the other fault injectors; this package
holds the *defences*.  The soft/hard heartbeat deadlines a hung
stream stage is graded against are constants of
:mod:`repro.stream.supervisor`.  Neither module here imports
:mod:`repro.config` — the knobs arrive as
:class:`~repro.faults.plan.FloodFaults` values and plain floats, so the
package sits beside ``faults`` in the layering.
"""

from repro.overload.admission import (
    ADMIT,
    DEFER,
    SHED,
    AdmissionController,
    build_admission_controller,
    record_priority,
)
from repro.overload.tokenbucket import (
    ClientRateLimiter,
    TokenBucket,
)

__all__ = [
    "ADMIT",
    "DEFER",
    "SHED",
    "AdmissionController",
    "ClientRateLimiter",
    "TokenBucket",
    "build_admission_controller",
    "record_priority",
]
