"""Every experiment runs and reproduces the paper's qualitative shape."""

from __future__ import annotations

import random
from datetime import date

import pytest

from repro.config import SimulationConfig
from repro.experiments.base import REGISTRY
from repro.experiments.dataset import NOTHING_TO_CLUSTER, build_dataset
from repro.experiments.fig10_passwords import _monthly_correlation
from repro.experiments.runner import load_all_experiments, render_report
from tests.conftest import run_all_experiments

EXPECTED_IDS = {
    "table_stats", "fig01", "fig02", "fig03a", "fig03b", "fig04a", "fig04b",
    "fig05", "fig06", "fig07", "fig08a", "fig08b", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table1",
    "ext_stateful", "ext_ablation_tokenizer", "ext_ablation_ruleorder",
    "ext_ablation_detection", "ext_baseline_clustering",
    "ext_sensor_coverage", "ext_validation",
}


class TestRegistry:
    def test_all_figures_registered(self):
        load_all_experiments()
        assert set(REGISTRY) == EXPECTED_IDS

    def test_results_complete(self, results):
        assert set(results) == EXPECTED_IDS
        for result in results.values():
            assert result.rows, f"{result.experiment_id} produced no rows"
            assert result.notes

    def test_render_report(self, results):
        report = render_report(results)
        for eid in EXPECTED_IDS:
            assert eid in report


#: The experiments built on a clustering of the file sessions.
CLUSTERING_IDS = (
    "fig05", "fig06", "ext_ablation_tokenizer", "ext_baseline_clustering",
)


class TestSparseDatasets:
    """Datasets without a file session: every experiment still runs."""

    @pytest.mark.parametrize(
        "config",
        [
            SimulationConfig(seed=7, scale=1e-7),
            SimulationConfig(
                seed=7, start=date(2022, 1, 1), end=date(2022, 1, 2)
            ),
        ],
        ids=["scale-1e-7", "two-day-window"],
    )
    def test_every_experiment_runs(self, config):
        dataset = build_dataset(config)
        assert dataset.file_sessions() == []
        results = run_all_experiments(dataset)
        assert set(results) == EXPECTED_IDS
        for eid in CLUSTERING_IDS:
            assert results[eid].rows == []
            assert NOTHING_TO_CLUSTER in results[eid].notes
        assert dataset.clustering().selection.chosen_k == 0

    def test_no_download_flows(self):
        dataset = build_dataset(
            SimulationConfig(seed=7, start=date(2022, 1, 1), end=date(2022, 1, 2))
        )
        result = REGISTRY["fig07"]().run(dataset)
        assert result.rows == []
        assert result.notes[0].startswith("no flows")


def note_text(results, eid: str) -> str:
    return " ".join(results[eid].notes)


class TestShapes:
    """Paper-vs-measured qualitative checks at default (tiny) scale."""

    def test_stats_scouting_largest(self, results):
        rows = {row[0]: row[1] for row in results["table_stats"].rows}
        assert rows["Scouting"] == max(
            rows[k] for k in ("Scanning", "Scouting", "Intrusion", "Command Execution")
        )
        assert rows["Command Execution"] > rows["Scanning"]

    def test_fig01_non_state_grows_into_2023(self, results):
        assert "grew" in note_text(results, "fig01")
        grew = float(note_text(results, "fig01").split("grew ")[1].split("x")[0])
        assert grew > 1.2

    def test_fig02_echo_ok_dominates(self, results):
        text = note_text(results, "fig02")
        share = float(text.split("echo_OK share of non-state sessions: ")[1].split("%")[0])
        assert share > 70.0

    def test_fig03a_mdrfckr_dominates(self, results):
        text = note_text(results, "fig03a")
        share = float(text.split("mdrfckr share: ")[1].split("%")[0])
        assert share > 75.0

    def test_fig03b_bbox_unlabelled_ends_mid_2022(self, results):
        text = note_text(results, "fig03b")
        last = text.split("last active month: ")[1].split(" ")[0]
        assert last <= "2022-08"

    def test_fig04_missing_exceeds_exists(self, results):
        exists = int(
            note_text(results, "fig04a").split("file-exists sessions: ")[1].split(" ")[0]
        )
        missing = int(
            note_text(results, "fig04b").split("file-missing sessions: ")[1].split(" ")[0]
        )
        assert missing > exists * 1.5

    def test_fig04a_collapse_after_2022(self, results):
        text = note_text(results, "fig04a")
        early = float(text.split("collapse: ")[1].split("/mo")[0])
        late = float(text.split("→ ")[1].split("/mo")[0])
        assert late < early

    def test_fig05_clusters_sorted(self, results):
        assert "monotone: True" in note_text(results, "fig05")

    def test_fig05_selects_multiple_clusters(self, results):
        assert len(results["fig05"].rows) >= 4

    def test_fig06_top_clusters_labelled(self, results):
        text = note_text(results, "fig06")
        assert "C-" in text

    def test_fig07_majority_differs(self, results):
        text = note_text(results, "fig07")
        differs = int(text.split("differs from client IP in ")[1].split("%")[0])
        assert 60 <= differs <= 95  # paper: 80%

    def test_fig08a_young_ases(self, results):
        text = note_text(results, "fig08a")
        young = int(text.split("younger than 1 year: ")[1].split("%")[0])
        under5 = int(text.split("younger than 5 years: ")[1].split("%")[0])
        assert young >= 20  # paper: >35%
        assert under5 >= 55  # paper: >70%
        assert under5 >= young

    def test_fig08b_small_ases(self, results):
        text = note_text(results, "fig08b")
        single = int(text.split("single-/24 ASes: ")[1].split("%")[0])
        assert 8 <= single <= 40  # paper: ~20%

    def test_fig09_single_day_majority_class(self, results):
        text = note_text(results, "fig09")
        one_day = int(text.split("active a single day (paper")[0].split(": ")[-1].rstrip("% of IPs "))
        assert one_day >= 40

    def test_fig10_campaign_password_on_top(self, results):
        text = note_text(results, "fig10")
        assert "3245gs5662d34" in text
        assert "no commands: " in text

    def test_fig11_phil_silent(self, results):
        text = note_text(results, "fig11")
        silent = int(text.split("no commands after login: ")[1].split("%")[0])
        assert silent >= 80  # paper: >90%

    def test_fig12_c2_ips_found(self, results):
        text = note_text(results, "fig12")
        assert "C2 IPs named by cleanup scripts: 8" in text

    def test_fig12_event_recall(self, results):
        text = note_text(results, "fig12")
        matched = int(text.split("events matched: ")[1].split("/")[0])
        assert matched >= 3  # detection is scale-limited; paper: 8/8

    def test_fig13_variant_timing_and_overlap(self, results):
        text = note_text(results, "fig13")
        assert "variant first month: 2022-12" in text
        overlap = float(text.split("the campaign: ")[1].split("%")[0])
        assert overlap > 70.0  # paper: 99.4% (pool quantisation at tiny scale)

    def test_fig14_scout_block_separates(self, results):
        text = note_text(results, "fig14")
        within = float(text.split("scout block: ")[1].split(";")[0])
        across = float(text.split("scout-vs-rest: ")[1].split(" ")[0])
        assert across > within

    def test_fig15_four_clients_unique_cookies(self, results):
        text = note_text(results, "fig15")
        assert "from 4 client IPs" in text
        assert "every cookie unique: True" in text

    def test_fig16_missing_more_unique(self, results):
        text = note_text(results, "fig16")
        missing = int(text.split("file-missing ")[1].split(" ")[0])
        exists = int(text.split("file-exists ")[1].split(" ")[0])
        assert missing > exists

    def test_fig17_hosting_majority(self, results):
        text = note_text(results, "fig17")
        hosting = int(text.split("Hosting share overall: ")[1].split("%")[0])
        assert hosting >= 60

    def test_table1_counts_and_coverage(self, results):
        text = note_text(results, "table1")
        assert "58 regex + 1 fallback = 59" in text
        coverage = float(text.split("coverage: ")[1].split("%")[0])
        assert coverage > 97.0  # paper: >99%


class TestFig10Correlation:
    """fig10's monthly Pearson r against scipy's ``pearsonr``."""

    @staticmethod
    def per_month(series_a, series_b):
        return {
            f"m{index:02d}": {"a": a, "b": b}
            for index, (a, b) in enumerate(zip(series_a, series_b))
        }

    def test_matches_pearsonr(self):
        pearsonr = pytest.importorskip("scipy.stats").pearsonr

        rng = random.Random(10)
        for _ in range(200):
            months = rng.randrange(3, 34)
            series_a = [rng.randrange(0, 40) for _ in range(months)]
            series_b = [rng.randrange(0, 40) for _ in range(months)]
            if len(set(series_a)) == 1 or len(set(series_b)) == 1:
                continue
            expected = pearsonr(series_a, series_b).statistic
            measured = _monthly_correlation(
                self.per_month(series_a, series_b), "a", "b"
            )
            assert abs(measured - expected) <= 1e-12

    def test_undefined_correlations_are_zero(self):
        for series_a, series_b in (
            ([1, 2], [2, 1]),  # fewer than three months
            ([0, 0, 0], [1, 2, 3]),  # one password never seen
            ([4, 4, 4], [1, 2, 3]),  # constant series
        ):
            per_month = self.per_month(series_a, series_b)
            assert _monthly_correlation(per_month, "a", "b") == 0.0
            assert _monthly_correlation(per_month, "b", "a") == 0.0
