"""Seeded fault injection and resilience for the collection pipeline.

The paper's 33-month deployment was not a clean instrument: it suffered
a 48-hour collection outage (section 3.3), sensor-level churn and
emulation gaps, and every finding had to survive them.  This package
makes those infrastructure failures a first-class, deterministic part of
the simulation:

* :mod:`repro.faults.plan` — the fault *plan*: which days the fleet is
  dark, which sensors are down, and how lossy the collection path is,
  all derived from the master seed.
* :mod:`repro.faults.transport` — the resilient honeypot→collector
  delivery channel (retries with exponential backoff + jitter, a
  dead-letter queue, idempotent dedup).
* :mod:`repro.faults.checkpoint` — periodic, self-verifying, rotated
  checkpointing of collector state so a killed run — even one whose
  newest checkpoint was corrupted on disk — can resume mid-window to an
  identical dataset.
* :mod:`repro.faults.corruption` — seeded *storage* faults: bit-flips
  and truncation of checkpoint files, mangled/duplicated/reordered
  session-log lines, and damaged or desynced ``index.sqlite``
  artifacts (:mod:`repro.store`).
* :mod:`repro.faults.flood` — seeded *overload* faults: scan-campaign
  session bursts that push arrivals past the collector's admission
  budget (the defences live in :mod:`repro.overload`).
* :mod:`repro.faults.service` — seeded *client* faults for the
  query/status service: slow-loris readers, mid-response disconnects,
  thundering herds, malformed queries and injected store errors (the
  defences live in :mod:`repro.service`).
* :mod:`repro.faults.coverage` — per-month / per-sensor coverage
  accounting so degraded datasets are analysed with explicit gap
  annotations instead of silently misread.

None of these modules import :mod:`repro.config`; the config module
itself embeds a :class:`~repro.faults.plan.FaultProfile`, so the import
direction is ``faults → config → everything else``.
"""

from repro.faults.checkpoint import (
    CheckpointError,
    config_fingerprint,
    has_checkpoint,
    load_checkpoint,
    load_latest_checkpoint,
    restore_state,
    save_checkpoint,
)
from repro.faults.corruption import (
    INDEX_CORRUPTION_MODES,
    IndexCorruptor,
    build_checkpoint_corruptor,
    build_index_corruptor,
    build_log_corruptor,
)
from repro.faults.coverage import (
    CoverageError,
    CoverageReport,
    build_coverage_report,
    integrity_note,
    validate_coverage,
)
from repro.faults.flood import (
    FloodGenerator,
    build_flood_generator,
)
from repro.faults.service import (
    SERVICE_FAULT_PRESETS,
    ServiceFaults,
    compile_request_plan,
    compile_tick_plan,
)
from repro.faults.plan import (
    FaultPlan,
    FaultProfile,
    FloodFaults,
    IntegrityFaults,
    OutageWindow,
    SensorDowntime,
    TransportFaults,
    compile_fault_plan,
)
from repro.faults.transport import (
    DirectChannel,
    ResilientChannel,
    build_channel,
)

__all__ = [
    "CheckpointError",
    "CoverageError",
    "CoverageReport",
    "DirectChannel",
    "FaultPlan",
    "FaultProfile",
    "FloodFaults",
    "FloodGenerator",
    "INDEX_CORRUPTION_MODES",
    "IndexCorruptor",
    "IntegrityFaults",
    "OutageWindow",
    "ResilientChannel",
    "SERVICE_FAULT_PRESETS",
    "SensorDowntime",
    "ServiceFaults",
    "TransportFaults",
    "build_channel",
    "build_checkpoint_corruptor",
    "build_coverage_report",
    "build_index_corruptor",
    "build_flood_generator",
    "build_log_corruptor",
    "compile_fault_plan",
    "compile_request_plan",
    "compile_tick_plan",
    "config_fingerprint",
    "has_checkpoint",
    "integrity_note",
    "load_checkpoint",
    "load_latest_checkpoint",
    "restore_state",
    "save_checkpoint",
    "validate_coverage",
]
