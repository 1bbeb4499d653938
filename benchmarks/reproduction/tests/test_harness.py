"""Tests of the benchmark harness: span arithmetic, the percentile rule,
metric names, speed samples, the per-unit floor, the compare rule, and a
smoke run of every workload.

Run from the repository root:
``PYTHONPATH=src python -m pytest benchmarks/reproduction/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parents[1]
sys.path.insert(0, str(BENCH))

from harness import (  # noqa: E402
    NAME_PATTERN,
    PER_LAYER,
    REFERENCE_KERNEL_S,
    RUN_LEVEL,
    Sampler,
    Speed,
    compare_metric,
    end_to_end_values,
    layer_totals,
    normalized_units,
    run_values,
    summarize,
    tail_percentile,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COMMAND = [sys.executable, str(BENCH.relative_to(ROOT) / "run.py")]


def test_self_time_subtracts_children_and_counts_recursion_once():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,9] > B[6,8];  D[12,13]
    names = ["A", "B", "C", "B", "B", "D"]
    parents = [-1, 0, 1, 0, 3, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0, 12.0]
    ends = [10.0, 4.0, 3.0, 9.0, 8.0, 13.0]
    totals, covered = layer_totals(names, parents, starts, ends)
    assert totals["A"] == [1, pytest.approx(3.0)]
    # B: 3-1 + 4-2 + 2; the nested B is not a primitive call
    assert totals["B"] == [2, pytest.approx(6.0)]
    assert totals["C"] == [1, pytest.approx(1.0)]
    assert totals["D"] == [1, pytest.approx(1.0)]
    assert covered == pytest.approx(11.0)
    assert sum(self_s for _calls, self_s in totals.values()) == pytest.approx(covered)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    label, value = tail_percentile([float(i) for i in range(1, 1001)])
    assert label == "p99" and value == pytest.approx(990.5)
    assert tail_percentile([1.0] * 1004)[0] == "p99"
    assert tail_percentile([1.0] * 999)[0] == "p90"
    assert tail_percentile([1.0] * 30_000)[0] == "p99.9"
    assert tail_percentile([1.0] * 273)[0] == "p90"
    assert tail_percentile([1.0] * 15)[0] == "p50"


def test_metric_names_are_well_formed_and_computed_here():
    declared = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert all(NAME_PATTERN.match(name) for name in declared)
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(PER_LAYER) | set(RUN_LEVEL)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_times_are_read_against_the_kernel_samples():
    reference = REFERENCE_KERNEL_S
    # a sample every 0.1 s; the machine runs at half speed from t = 10 on
    starts = [0.05 + 0.1 * index for index in range(200)]
    ends = [
        began + (reference if began < 10.0 else 2 * reference) for began in starts
    ]
    speed = Speed([starts, ends])
    # the samples inside an interval are taken out of it
    assert speed.seconds(2.0, 4.0) == pytest.approx(2.0 - 20 * reference)
    assert speed.seconds(14.0, 16.0) == pytest.approx((2.0 - 40 * reference) / 2)
    assert normalized_units([2.0, 3.0, 4.0], speed) == [
        pytest.approx(1.0 - 10 * reference)
    ] * 2
    # an interval between two samples borrows its neighbours' speed
    assert speed.seconds(15.06, 15.07) == pytest.approx(0.005)
    # a descheduled sample still leaves its interval, but not the mean
    ends[30] = starts[30] + 0.002
    speed = Speed([starts, ends])
    assert speed.seconds(2.0, 4.0) == pytest.approx(2.0 - 19 * reference - 0.002)
    # without samples a time is read as it is
    assert Speed([[], []]).seconds(1.0, 2.5) == pytest.approx(1.5)


def test_the_sampler_times_the_kernel_while_the_program_runs():
    sampler = Sampler()
    sampler.start()
    deadline = time.monotonic() + 0.2
    while time.monotonic() < deadline:
        pass
    sampler.stop()
    starts, ends = sampler.record()
    assert len(starts) >= 5
    assert starts == sorted(starts)
    assert all(began < ended for began, ended in zip(starts, ends))


def _child(durations: list[float], peak_rss_mb: float) -> dict:
    """A synthetic untraced child: spawn, first line, timed call,
    ``run_stream`` start, four day starts, ``run_stream`` end, end; it
    took no speed samples, so its times read as they are."""
    marks, now = [], 0.0
    for duration in durations:
        now += duration
        marks.append(now)
    return {
        "spawned_at": 0.0,
        "marks": marks,
        "samples": [[], []],
        "timed_index": 1,
        "sim_span": [2, 7],
        "day_marks": [3, 4, 5, 6],
        "analysis_spans": [[7, 8]],
        "ops": 400,
        "ops_span": [2, 7],
        "peak_rss_mb": peak_rss_mb,
        "seed": 7,
    }


def test_end_to_end_values_take_the_floor_of_each_unit():
    fast = _child([0.5, 0.1, 0.0, 0.2, 1.0, 1.0, 1.0, 0.1, 2.0], 100.0)
    # a slow spell over the second simulated day; analysis a bit faster
    slow = _child([0.7, 0.1, 0.0, 0.2, 1.0, 3.0, 1.0, 0.1, 1.5], 102.0)
    values = end_to_end_values([fast, slow])
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["setup_s"] == pytest.approx((0.6 + 0.8) / 2)
    assert values["simulate_s"] == pytest.approx(0.2 + 3 * 1.0 + 0.1)
    assert values["analysis_s"] == pytest.approx(1.5)
    assert values["wall_s"] == pytest.approx(3.3 + 1.5)
    assert values["throughput_per_s"] == pytest.approx(400 / 3.3)
    assert values["op_p50_ms"] == pytest.approx(1000.0)
    assert values["peak_rss_mb"] == pytest.approx(101.0)
    with pytest.raises(ValueError):
        end_to_end_values([fast, dict(slow, marks=slow["marks"][:-1])])


def test_a_run_averages_its_seeds_and_takes_the_median_set_up():
    first = _child([0.5, 0.1, 0.0, 0.2, 1.0, 1.0, 1.0, 0.1, 2.0], 100.0)
    other = dict(
        _child([0.5, 0.1, 0.0, 0.2, 1.0, 1.0, 1.0, 0.1, 4.0], 104.0), seed=8
    )
    values = run_values([first, other], [])
    assert values["analysis_s"] == pytest.approx(3.0)
    assert values["peak_rss_mb"] == pytest.approx(102.0)
    assert run_values([first, first], []) == end_to_end_values([first])
    # set-up-only children stop at the first timed call
    setups = [
        {"spawned_at": 0.0, "marks": [0.5, took], "samples": [[], []],
         "timed_index": 1}
        for took in (0.9, 1.0)
    ]
    values = run_values([first], setups)
    assert values["setup_s"] == pytest.approx(0.9)
    assert values["wall_s"] == end_to_end_values([first])["wall_s"]


def test_compare_verdicts():
    before = summarize([10.0, 10.1, 10.2, 9.9, 10.0])
    assert compare_metric(before, summarize([10.1, 10.0, 10.2]), "lower", 0.1)[
        "verdict"
    ] == "ok"
    assert compare_metric(before, summarize([12.0, 12.1, 12.2]), "lower", 0.1)[
        "verdict"
    ] == "regressed"
    noisy = summarize([8.0, 10.0, 13.0, 9.0, 12.0])
    assert compare_metric(before, noisy, "lower", 0.1)["verdict"] == "unresolved"
    # every run of B better than every run of A: ok despite the spread
    faster = summarize([5.0, 7.0, 9.0])
    assert compare_metric(before, faster, "lower", 0.1)["verdict"] == "ok"
    assert compare_metric(before, summarize([8.0, 8.1, 8.2]), "higher", 0.1)[
        "verdict"
    ] == "regressed"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH,
        tmp_path / BENCH.relative_to(ROOT),
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    completed = subprocess.run(
        [*COMMAND, "--workload", "query-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert "correct" not in completed.stdout


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Every workload on two weeks at 5x density, traced and untraced,
    and the telemetry pairs."""
    out = tmp_path_factory.mktemp("smoke") / "results.json"
    completed = subprocess.run(
        [*COMMAND, "--smoke", "--trace", "--telemetry", "--seconds", "0",
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode in (0, 1), completed.stderr
    return json.loads(out.read_text()), json.loads(
        completed.stdout.strip().splitlines()[-1]
    )


def test_smoke_produces_every_metric_named_in_benchmark_json(smoke):
    results, last_line = smoke
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, workload in results["workloads"].items():
        assert set(workload["end_to_end"]) == end_to_end
        assert all(s["median"] > 0 for s in workload["end_to_end"].values()), name
        assert set(workload["per_layer"]) == per_layer
        assert set(last_line["metrics"][name]) == per_layer


def test_smoke_traced_outputs_equal_untraced(smoke):
    results, _ = smoke
    for name, workload in results["workloads"].items():
        children = workload["children"]
        assert {child["mode"] for child in children} == {"plain", "traced"}, name
        traced = next(child for child in children if child["mode"] == "traced")
        same_seed = [child for child in children if child["seed"] == traced["seed"]]
        assert len(same_seed) > 1, name
        assert len({child["digest"] for child in same_seed}) == 1, name
        for child in children:
            assert not [p for p in child["problems"] if "responses wrong" in p]
            assert not [p for p in child["problems"] if "conservation" in p]
    query = results["workloads"]["query-mix"]["children"]
    assert all(child["failed"] == 0 for child in query)


def test_smoke_times_telemetry_overhead_in_six_pairs(smoke):
    results, _ = smoke
    telemetry = results["telemetry"]
    assert not telemetry["problems"]
    assert telemetry["overhead_pct"]["n"] == 6
    assert telemetry["verdict"] in ("under", "over", "unresolved")
