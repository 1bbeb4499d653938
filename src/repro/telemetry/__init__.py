"""Process-local telemetry: metrics, spans and optional profiling.

The paper's longitudinal claims rest on per-stage accounting of the
collection pipeline (outage windows, per-sensor coverage, session
volumes); this package gives every run that accounting as a side
channel.  Usage::

    from repro import telemetry

    registry = telemetry.enable()           # opt in (off by default)
    result = run_simulation(config)         # hot paths record into it
    document = telemetry.telemetry_document(
        telemetry.disable(), meta={"seed": config.seed}
    )

Design constraints (enforced by ``tests/test_telemetry.py``):

* **Observational only.**  Telemetry never touches a random stream,
  never mutates a record, and is excluded from config fingerprints,
  dataset cache keys and digests.  Outputs are byte-identical with
  telemetry on or off.
* **Off by default, near-zero when off.**  Every recording helper
  checks one module global and returns; ``span()`` hands back a shared
  no-op context manager.
* **Comparable.**  Counters and histograms are functions of the config
  alone, so two runs of the same config agree on them exactly.  Metrics
  that describe the execution engine rather than the simulated pipeline
  live under the :data:`MERGE_ONLY_PREFIXES` and are excluded from that
  equivalence (see :func:`comparable_view`).

Layering: ``telemetry`` imports only ``util`` (like ``util`` itself,
any layer may use it).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.telemetry.metrics import (
    BACKOFF_BOUNDS,
    SECONDS_BOUNDS,
    VOLUME_BOUNDS,
    Histogram,
    MetricsRegistry,
    SpanStats,
)
from repro.telemetry.profiler import profile_stage
from repro.telemetry.report import (
    run_report_markdown,
    telemetry_document,
    write_telemetry_json,
)
from repro.telemetry.spans import NULL_SPAN, Span

__all__ = [
    "BACKOFF_BOUNDS",
    "SECONDS_BOUNDS",
    "VOLUME_BOUNDS",
    "Histogram",
    "MetricsRegistry",
    "SpanStats",
    "Span",
    "NULL_SPAN",
    "MERGE_ONLY_PREFIXES",
    "enable",
    "disable",
    "active",
    "collecting",
    "count",
    "flush_counts",
    "gauge",
    "observe",
    "span",
    "profile",
    "comparable_view",
    "telemetry_document",
    "run_report_markdown",
    "write_telemetry_json",
]

#: Metric-name prefixes that describe the execution *engine* rather
#: than the simulated pipeline.  They legitimately differ between two
#: runs of the same config (checkpoint counters depend on the save
#: cadence and on resumes; store counters track artifact-tree
#: persistence, which is engine-external bookkeeping), so the
#: differential suites compare registries with these filtered out.
#: The admission counters (``overload.admitted/shed/deferred``) are
#: deliberately NOT here: shedding verdicts are seeded per record, so
#: every run of a config must agree on them exactly.
#: ``stream.*`` counters describe the stream engine's supervision
#: layer (queue depths, breaker/mode transitions, heartbeat breaches,
#: audited ledger days) — how a run executed, not what it produced, so
#: they are engine-class metrics too.  ``service.*`` counters describe the query/status
#: service (cache traffic, overload rejections, stale serves, snapshot
#: publication) — the service is an optional attachment whose presence
#: must not change the comparable view, so its whole catalog is
#: engine-class.
MERGE_ONLY_PREFIXES = (
    "checkpoint.",
    "store.",
    "stream.",
    "service.",
)

#: The currently active registry, or None while telemetry is disabled.
_ACTIVE: MetricsRegistry | None = None


def enable(profile: bool = False) -> MetricsRegistry:
    """Activate a fresh registry (replacing any active one)."""
    global _ACTIVE
    _ACTIVE = MetricsRegistry(profiling=profile)
    return _ACTIVE


def disable() -> MetricsRegistry | None:
    """Deactivate telemetry; returns the final registry (if any)."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def active() -> MetricsRegistry | None:
    """The active registry, or None — hot loops hoist this lookup."""
    return _ACTIVE


class collecting:
    """``with telemetry.collecting() as registry:`` — scoped enable.

    Restores the previously active registry (usually None) on exit, so
    tests and benchmarks cannot leak an enabled registry.
    """

    def __init__(self, profile: bool = False) -> None:
        self._profile = profile
        self._previous: MetricsRegistry | None = None
        self.registry: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        global _ACTIVE
        self._previous = _ACTIVE
        self.registry = enable(profile=self._profile)
        return self.registry

    def __exit__(self, *exc_info) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to counter ``name`` (no-op while disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.count(name, n)


def flush_counts(
    flushed: dict[str, int], state: Iterable[tuple[str, int]]
) -> None:
    """Emit each counter's growth since ``flushed``, then advance it.

    ``state`` holds ``(metric name, current value)`` pairs of counters a
    hot path keeps as plain attributes; ``flushed`` is its owner's
    snapshot of what was already emitted (seed it with the current
    values to keep pre-existing counts out).  Flushed at day
    boundaries, the totals equal per-record emission at one dictionary
    update per counter per day.  The snapshot advances while telemetry
    is off too, so a later enable never counts history again.
    """
    registry = _ACTIVE
    for name, current in state:
        delta = current - flushed.get(name, 0)
        if delta:
            if registry is not None:
                registry.count(name, delta)
            flushed[name] = current


def gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name, value)


def observe(
    name: str, value: float, bounds: tuple[float, ...] = VOLUME_BOUNDS
) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, bounds)


def span(name: str):
    """A timed span context manager (shared no-op while disabled)."""
    registry = _ACTIVE
    if registry is None:
        return NULL_SPAN
    return Span(registry, name)


def profile(name: str):
    """A cProfile capture for stage ``name`` iff profiling is on."""
    return profile_stage(_ACTIVE, name)


def comparable_view(export: dict) -> dict:
    """The deterministic slice of an exported registry.

    Keeps counters and histograms (whose values are functions of the
    config alone) and drops engine-shaped metrics (the
    :data:`MERGE_ONLY_PREFIXES`) plus everything timing-valued (spans,
    gauges, profiles).  Two runs of the same config — with or without
    stream faults that never fire, a store or a service attached —
    must agree on this view exactly.
    """
    return {
        "counters": {
            name: value
            for name, value in export.get("counters", {}).items()
            if not name.startswith(MERGE_ONLY_PREFIXES)
        },
        "histograms": {
            name: data
            for name, data in export.get("histograms", {}).items()
            if not name.startswith(MERGE_ONLY_PREFIXES)
        },
    }
