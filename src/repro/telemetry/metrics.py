"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The registry is deliberately boring: plain dictionaries of plain
numbers, no background threads, no sampling.

Histograms use *fixed* bucket layouts (named below) rather than
adaptive ones, so two runs of the same metric family always bucket a
value identically and their exports compare field for field.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = [
    "VOLUME_BOUNDS",
    "SECONDS_BOUNDS",
    "BACKOFF_BOUNDS",
    "Histogram",
    "SpanStats",
    "MetricsRegistry",
]

#: Session/record volumes per unit of work (per day, per stage, ...).
VOLUME_BOUNDS = (0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000)

#: Wall-clock durations in seconds (spans use :class:`SpanStats`;
#: this layout serves duration-valued histograms such as stage times).
SECONDS_BOUNDS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0
)

#: Simulated transport backoff delays in seconds (see RetryPolicy:
#: base 0.5s doubling to a 30s cap, with equal jitter).
BACKOFF_BOUNDS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 60.0)


class Histogram:
    """A fixed-layout histogram: bucket ``i`` counts values ``v`` with
    ``bounds[i-1] < v <= bounds[i]``; one overflow bucket catches the
    rest.  Also tracks count/sum/min/max for summary lines.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        if not bounds or any(
            b <= a for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {bounds!r}"
            )
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls(tuple(data["bounds"]))
        histogram.counts = list(data["counts"])
        histogram.count = data["count"]
        histogram.sum = data["sum"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        return histogram


@dataclass
class SpanStats:
    """Aggregate timing of one span path (count + total/min/max)."""

    count: int = 0
    total_s: float = 0.0
    min_s: float | None = None
    max_s: float | None = None

    def record(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if self.min_s is None or elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if self.max_s is None or elapsed_s > self.max_s:
            self.max_s = elapsed_s

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpanStats":
        return cls(
            count=data["count"],
            total_s=data["total_s"],
            min_s=data["min_s"],
            max_s=data["max_s"],
        )


@dataclass
class MetricsRegistry:
    """One process-local bag of metrics.

    Strictly observational: nothing in the registry feeds back into the
    simulation, no random stream is touched, and the registry is never
    part of a config fingerprint, cache key or dataset digest.
    """

    counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)
    spans: dict[str, SpanStats] = field(default_factory=dict)
    profiles: dict[str, str] = field(default_factory=dict)
    profiling: bool = False
    _span_stack: list[str] = field(default_factory=list, repr=False)
    _profile_depth: int = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(
        self, name: str, value: float, bounds: tuple[float, ...] = VOLUME_BOUNDS
    ) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def record_span(self, path: str, elapsed_s: float) -> None:
        stats = self.spans.get(path)
        if stats is None:
            stats = self.spans[path] = SpanStats()
        stats.record(elapsed_s)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Plain-data snapshot (picklable/JSON-able) of every metric."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
            "spans": {
                path: stats.to_dict() for path, stats in self.spans.items()
            },
            "profiles": dict(self.profiles),
        }

    @classmethod
    def from_export(cls, export: dict) -> "MetricsRegistry":
        registry = cls()
        registry.counters = dict(export.get("counters", {}))
        registry.gauges = dict(export.get("gauges", {}))
        registry.histograms = {
            name: Histogram.from_dict(data)
            for name, data in export.get("histograms", {}).items()
        }
        registry.spans = {
            path: SpanStats.from_dict(data)
            for path, data in export.get("spans", {}).items()
        }
        registry.profiles = dict(export.get("profiles", {}))
        return registry
