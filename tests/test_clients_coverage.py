"""SSH banner and sensor-coverage analyses."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.analysis.clients import (
    banner_distribution,
    gini_coefficient,
    sensor_coverage,
)
from repro.honeypot.session import LoginAttempt, Protocol, SessionRecord


def session(honeypot_id: str, ssh_version: str | None = "SSH-2.0-Go") -> SessionRecord:
    return SessionRecord(
        session_id=f"s-{honeypot_id}-{ssh_version}-{id(object())}",
        honeypot_id=honeypot_id,
        honeypot_ip="192.0.2.1",
        honeypot_port=22,
        protocol=Protocol.SSH,
        client_ip="1.1.1.1",
        client_port=1,
        start=0.0,
        end=1.0,
        ssh_version=ssh_version,
        logins=[LoginAttempt("root", "x", True)],
    )


class TestGini:
    def test_even_distribution_zero(self):
        assert gini_coefficient([5, 5, 5, 5]) == pytest.approx(0.0, abs=1e-9)

    def test_concentration_high(self):
        assert gini_coefficient([0, 0, 0, 100]) > 0.7

    def test_empty_and_zero(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0, 0]) == 0.0

    def test_bounds(self):
        assert 0.0 <= gini_coefficient([1, 2, 3, 4, 100]) <= 1.0


class TestBanners:
    def test_distribution(self):
        sessions = [session("a"), session("a"), session("a", "SSH-2.0-PUTTY")]
        counts = banner_distribution(sessions)
        assert counts["SSH-2.0-Go"] == 2
        assert counts["SSH-2.0-PUTTY"] == 1

    def test_none_skipped(self):
        assert banner_distribution([session("a", None)]) == Counter()


class TestSensorCoverage:
    def test_coverage(self):
        sessions = [session("hp-0"), session("hp-0"), session("hp-1")]
        coverage = sensor_coverage(sessions, {"hp-0": "DE", "hp-1": "US"})
        assert coverage.active_honeypots == 2
        assert coverage.sessions_per_country["DE"] == 2
        assert coverage.busiest_honeypot == ("hp-0", 2)

    def test_unknown_country(self):
        coverage = sensor_coverage([session("hp-9")], {})
        assert coverage.sessions_per_country["??"] == 1

    def test_dataset_coverage_is_broad(self, dataset):
        countries = {
            hp.honeypot_id: hp.country
            for hp in dataset.simulation.honeynet.honeypots
        }
        coverage = sensor_coverage(dataset.database.ssh_sessions(), countries)
        assert coverage.active_honeypots > 150
        assert coverage.gini < 0.4  # spraying attacks spread evenly

    def test_experiment_notes(self, results):
        text = " ".join(results["ext_sensor_coverage"].notes)
        assert "Gini" in text
        assert "curl_maxred" in text
