"""The CLI surface and result export formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, check_bench_floors, main
from repro.experiments.base import ExperimentResult


@pytest.fixture
def sample_result():
    return ExperimentResult(
        experiment_id="fig01",
        title="Sample",
        headers=["month", "value"],
        rows=[["2022-01", 5], ["2022-02", 7]],
        notes=["a note"],
    )


class TestExports:
    def test_to_records(self, sample_result):
        records = sample_result.to_records()
        assert records[0] == {"month": "2022-01", "value": 5}

    def test_to_json_roundtrip(self, sample_result):
        payload = json.loads(sample_result.to_json())
        assert payload["experiment_id"] == "fig01"
        assert payload["rows"][1] == ["2022-02", 7]
        assert payload["notes"] == ["a note"]

    def test_to_csv(self, sample_result):
        lines = sample_result.to_csv().strip().splitlines()
        assert lines[0] == "month,value"
        assert lines[1] == "2022-01,5"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.seed == 7

    def test_export_options(self):
        args = build_parser().parse_args(
            ["export", "--format", "csv", "--only", "fig01"]
        )
        assert args.format == "csv"
        assert args.only == ["fig01"]

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_cluster_sample_limit_below_one_is_a_usage_error(self, limit):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["cluster", "--sample-limit", limit])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["stats", "report"])
    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_scale_not_positive_finite_is_a_usage_error(self, command, scale):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--scale", scale])
        assert excinfo.value.code == 2


class TestCommands:
    def test_stats_command(self, capsys, dataset):
        code = main(["stats"])  # reuses the cached default dataset
        assert code == 0
        assert "Dataset statistics" in capsys.readouterr().out

    def test_experiments_subset(self, capsys, dataset):
        code = main(["experiments", "--only", "table1"])
        assert code == 0
        output = capsys.readouterr().out
        assert "table1" in output and "fig09" not in output

    def test_experiments_unknown_id(self, capsys, dataset):
        code = main(["experiments", "--only", "nope"])
        assert code == 2

    def test_export_json(self, tmp_path, dataset):
        code = main(
            ["export", "--only", "table_stats", "--out", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "table_stats.json").read_text())
        assert payload["experiment_id"] == "table_stats"

    def test_export_csv(self, tmp_path, dataset):
        code = main(
            [
                "export", "--only", "table_stats", "--format", "csv",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "table_stats.csv").read_text().startswith("metric")

    def test_cluster_json(self, tmp_path, dataset):
        path = tmp_path / "cluster.json"
        code = main(["cluster", "--json", str(path)])
        assert code == 0
        payload = json.loads(path.read_text())
        clustering = dataset.clustering()
        assert payload["sessions"] == len(clustering.sessions)
        assert payload["distinct_sequences"] == len(
            {tuple(tokens) for tokens in clustering.tokens}
        )
        assert payload["chosen_k"] == clustering.selection.chosen_k
        assert sum(c["sessions"] for c in payload["clusters"]) == (
            payload["sessions"]
        )
        assert "mode" not in payload

    def test_cluster_json_with_no_file_sessions(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        code = main(["cluster", "--scale", "1e-7", "--json", str(path)])
        assert code == 0
        assert "k=0" in capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["sessions"] == 0
        assert payload["chosen_k"] == 0
        assert payload["clusters"] == []


class TestBenchFloors:
    def _report(self, overhead=1.0, unserved=0):
        return {
            "cpu_count": 4,
            "telemetry": {"overhead_pct": overhead, "digest_match": True},
            "service": {
                "repeated": {"cache_hit_ratio": 0.95, "unserved": 0},
                "breaker_open": {"unserved": unserved},
            },
        }

    def test_healthy_report_passes(self):
        assert check_bench_floors(self._report()) == []

    def test_telemetry_overhead_fails(self):
        violations = check_bench_floors(self._report(overhead=6.3))
        assert violations and "6.30%" in violations[0]

    def test_custom_floors(self):
        report = self._report(overhead=4.0)
        assert check_bench_floors(report) == []
        assert check_bench_floors(report, telemetry_bar_pct=3.0)
        assert check_bench_floors(report, service_cache_floor=0.99)

    def test_both_floors_can_fail_together(self):
        violations = check_bench_floors(
            self._report(overhead=9.9, unserved=3)
        )
        assert len(violations) == 2
