"""Property tests for the telemetry histograms and export format.

Histogram bucket placement is a pure function of (value, layout), and a
registry survives its plain-data export unchanged.  Hypothesis sweeps
those properties over arbitrary values and layouts.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.telemetry.metrics import (
    SECONDS_BOUNDS,
    VOLUME_BOUNDS,
    Histogram,
    MetricsRegistry,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)

bounds_layouts = st.sampled_from(
    [VOLUME_BOUNDS, SECONDS_BOUNDS, (0.0,), (1.0, 2.0, 3.0)]
)


def histogram_of(values, bounds) -> Histogram:
    histogram = Histogram(bounds)
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogramBucketMath:
    @given(values=st.lists(finite_floats, max_size=50), bounds=bounds_layouts)
    def test_every_value_lands_in_exactly_one_bucket(self, values, bounds):
        histogram = histogram_of(values, bounds)
        assert sum(histogram.counts) == len(values) == histogram.count

    @given(value=finite_floats, bounds=bounds_layouts)
    def test_bucket_placement_brackets_the_value(self, value, bounds):
        histogram = histogram_of([value], bounds)
        index = histogram.counts.index(1)
        if index > 0:
            assert value > bounds[index - 1]
        if index < len(bounds):
            assert value <= bounds[index]


class TestRegistryExport:
    @given(values=st.lists(finite_floats, max_size=20), bounds=bounds_layouts)
    def test_export_roundtrip_preserves_histograms(self, values, bounds):
        registry = MetricsRegistry()
        for value in values:
            registry.observe("h", value, bounds)
        restored = MetricsRegistry.from_export(registry.export())
        assert restored.export() == registry.export()
