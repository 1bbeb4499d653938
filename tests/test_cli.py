"""The CLI surface and result export formats."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
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

    def test_telemetry_writes_through_the_common_flag_only(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["telemetry", "--json", "t.json"])
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

    def test_export_unknown_id_exits_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import dataset as dataset_module

        def refuse(config):
            raise AssertionError("built a dataset for an unknown id")

        monkeypatch.setattr(dataset_module, "build_dataset", refuse)
        out = tmp_path / "figures"
        assert main(["export", "--only", "nope", "--out", str(out)]) == 2
        assert "nope" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["experiments", "export"])
    def test_experiments_run_through_the_runner(
        self, tmp_path, monkeypatch, dataset, command
    ):
        """One ``experiment.<id>`` span and one ``experiments.completed``
        count per experiment, as ``repro report --telemetry`` records."""
        monkeypatch.chdir(tmp_path)  # export writes figures/ here
        assert main([command, "--only", "fig01", "--telemetry", "t.json"]) == 0
        document = json.loads((tmp_path / "t.json").read_text())
        assert document["counters"]["experiments.completed"] == 1
        assert "experiment.fig01" in document["spans"]

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
