"""Telemetry layer: unit behaviour + the determinism differential suite.

The contract enforced here is **observational only**: enabling
telemetry changes nothing about the pipeline's outputs — the
default-config run still produces the golden digest, short runs are
byte-identical on vs off, and the registry never appears in
fingerprints or cache keys.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.attackers.orchestrator import run_simulation
from repro.config import DEFAULT_CONFIG
from repro.telemetry.metrics import (
    VOLUME_BOUNDS,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.report import (
    TELEMETRY_VERSION,
    run_report_markdown,
    telemetry_document,
)
from repro.telemetry.spans import NULL_SPAN
from tests.conftest import (
    GOLDEN_DEFAULT_DIGEST,
    PROFILES,
    short_fault_config,
)


@pytest.fixture(autouse=True)
def _telemetry_disabled():
    """Every test starts and ends with telemetry off (no leakage)."""
    telemetry.disable()
    yield
    telemetry.disable()


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper(self):
        histogram = Histogram((0, 1, 5))
        for value in (0, 0.5, 1, 3, 5, 6):
            histogram.observe(value)
        # bucket i counts bounds[i-1] < v <= bounds[i]; one overflow.
        assert histogram.counts == [1, 2, 2, 1]
        assert histogram.count == 6
        assert histogram.min == 0 and histogram.max == 6

    def test_overflow_bucket_catches_everything_above(self):
        histogram = Histogram(VOLUME_BOUNDS)
        histogram.observe(10**9)
        assert histogram.counts[-1] == 1

    def test_bounds_must_be_strictly_increasing(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram((1, 1, 2))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(())

    def test_roundtrip(self):
        histogram = Histogram((0, 1))
        histogram.observe(0.5)
        assert Histogram.from_dict(histogram.to_dict()).to_dict() == (
            histogram.to_dict()
        )


class TestRegistry:
    def test_count_gauge_observe(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 4)
        registry.gauge("g", 1.0)
        registry.gauge("g", 2.0)
        registry.observe("h", 3)
        assert registry.counters == {"a": 5}
        assert registry.gauges == {"g": 2.0}
        assert registry.histograms["h"].count == 1

    def test_export_roundtrip(self):
        registry = MetricsRegistry()
        registry.count("c", 7)
        registry.observe("h", 2.5, (0.0, 5.0))
        registry.record_span("outer/inner", 0.01)
        restored = MetricsRegistry.from_export(registry.export())
        assert restored.export() == registry.export()


class TestSpans:
    def test_nested_paths(self):
        registry = telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("inner"):
                pass
        assert registry.spans["outer"].count == 1
        assert registry.spans["outer/inner"].count == 2
        assert registry._span_stack == []

    def test_exception_still_recorded_and_stack_popped(self):
        registry = telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("boom"):
                raise RuntimeError("x")
        assert registry.spans["boom"].count == 1
        assert registry._span_stack == []


class TestDisabled:
    def test_helpers_are_no_ops(self):
        assert telemetry.active() is None
        telemetry.count("x")
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 1)
        assert telemetry.span("s") is NULL_SPAN
        assert telemetry.profile("p") is NULL_SPAN
        assert telemetry.active() is None

    def test_collecting_restores_previous_state(self):
        outer = telemetry.enable()
        with telemetry.collecting() as inner:
            assert telemetry.active() is inner
            assert inner is not outer
        assert telemetry.active() is outer

    def test_profile_requires_both_opt_ins(self):
        telemetry.enable(profile=False)
        assert telemetry.profile("stage") is NULL_SPAN
        registry = telemetry.enable(profile=True)
        with telemetry.profile("stage"):
            sum(range(100))
        assert "stage" in registry.profiles
        assert "cumulative" in registry.profiles["stage"]

    def test_nested_profile_degrades_to_outer_capture(self):
        registry = telemetry.enable(profile=True)
        with telemetry.profile("outer"):
            with telemetry.profile("inner"):
                pass
        assert "outer" in registry.profiles
        assert "inner" not in registry.profiles


class TestComparableView:
    def test_filters_engine_prefixes_and_timings(self):
        registry = MetricsRegistry()
        registry.count("sim.days", 3)
        registry.count("checkpoint.saves", 1)
        registry.count("stream.days", 3)
        registry.gauge("sim.stored_sessions", 2)
        registry.observe("sim.sessions_per_day", 10)
        registry.record_span("sim.run", 1.0)
        view = telemetry.comparable_view(registry.export())
        assert view["counters"] == {"sim.days": 3}
        assert list(view["histograms"]) == ["sim.sessions_per_day"]
        assert set(view) == {"counters", "histograms"}


class TestReport:
    def test_document_has_version_and_meta(self):
        registry = MetricsRegistry()
        registry.count("c")
        document = telemetry_document(registry, meta={"seed": 7})
        assert document["version"] == TELEMETRY_VERSION
        assert document["meta"] == {"seed": 7}
        assert document["counters"] == {"c": 1}

    def test_markdown_sections(self):
        registry = MetricsRegistry()
        registry.count("sim.days", 2)
        registry.observe("h", 1)
        registry.record_span("sim.run", 0.5)
        report = run_report_markdown(telemetry_document(registry))
        assert report.startswith("# Telemetry run report")
        assert "sim.days" in report
        assert "## Spans" in report

    def test_empty_registry_renders(self):
        report = run_report_markdown(telemetry_document(MetricsRegistry()))
        assert "(none)" in report


# ----------------------------------------------------------------------
# differential suite: telemetry is strictly observational
# ----------------------------------------------------------------------

class TestObservational:
    def test_default_config_digest_with_telemetry_on(self):
        """ISSUE acceptance: the golden digest survives instrumentation."""
        with telemetry.collecting() as registry:
            result = run_simulation(DEFAULT_CONFIG)
        assert result.database.digest() == GOLDEN_DEFAULT_DIGEST
        assert registry.counters["sim.days"] == (
            (DEFAULT_CONFIG.end - DEFAULT_CONFIG.start).days + 1
        )

    @pytest.mark.parametrize("profile", PROFILES)
    def test_on_equals_off_per_profile(self, serial_baselines, profile):
        """The serial baselines ran with telemetry off; rerunning with a
        registry active must reproduce them byte for byte."""
        baseline = serial_baselines[profile]
        with telemetry.collecting():
            result = run_simulation(short_fault_config(profile))
        assert result.database.digest() == baseline.database.digest()
        assert result.collector.accounting() == (
            baseline.collector.accounting()
        )

    def test_config_fingerprint_ignores_telemetry_state(self):
        from repro.faults.checkpoint import config_fingerprint

        config = short_fault_config("paper")
        off = config_fingerprint(config)
        with telemetry.collecting():
            on = config_fingerprint(config)
        assert on == off


class TestCliTelemetry:
    @pytest.fixture(autouse=True)
    def _primed_cache(self, dataset):
        """Re-seed the dataset cache from the session fixture so the
        CLI commands exercise only the wiring, not a fresh run (other
        tests may have cleared the cache in between)."""
        from repro.experiments import dataset as dataset_module

        dataset_module._CACHE.setdefault(
            dataset_module._cache_key(DEFAULT_CONFIG), dataset
        )

    def test_flag_writes_document(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tele.json"
        assert main(["stats", "--telemetry", str(path)]) == 0
        document = json.loads(path.read_text())
        assert document["version"] == TELEMETRY_VERSION
        assert document["meta"]["command"] == "stats"
        assert document["counters"].get("dataset.cache_hits") == 1
        assert telemetry.active() is None

    def test_subcommand_prints_report(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "tele.json"
        assert main(["telemetry", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Telemetry run report" in out
        assert "## Counters" in out
        document = json.loads(path.read_text())
        assert document["meta"]["command"] == "telemetry"

    def test_no_flag_collects_nothing(self, capsys):
        from repro.cli import main

        assert main(["stats"]) == 0
        assert telemetry.active() is None
