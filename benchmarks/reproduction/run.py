"""Benchmark a full reproduction: four workloads, end to end and per layer.

Run (from the repository root)::

    python3 benchmarks/reproduction/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--repeats R] [--trace [0|1]] [--telemetry]
        [--out results.json]
    python3 benchmarks/reproduction/run.py compare A.json B.json

Each child process (``child.py``) runs one workload once, so caches
start cold; only one child runs at a time.  A *run* of a workload is a
fixed number of untraced children (``CHILDREN``, scaled by ``--seconds``
over ``run_seconds`` and never fewer than one) and of set-up-only
children (``SETUP_CHILDREN``).  Children that share a seed are floored
per unit (``harness.unit_floor``); repro-default's children each take a
seed of their own and the run averages them (``harness.run_values``).
``--repeats`` runs every workload that many times, round-robin, and
each metric is then the median over runs, reported with quartiles,
extremes and ``n``.

Without ``--trace`` the last line of standard output is one JSON object
with every end-to-end metric; with ``--trace`` each run adds one traced
child and the JSON carries every per-layer metric instead.  With
``--telemetry`` one more child measures telemetry overhead in six off/on
pairs, printed and kept in the result file.  The command checks
the program's outputs (golden digest at seed 7, conservation law, 29/29
experiments with rows, every query answer equal to the uncached store's)
and exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    compare_metric,
    per_layer_values,
    run_values,
    summarize,
    telemetry_verdict,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: A child that takes longer has hung; the run fails.
CHILD_TIMEOUT_S = 160.0
#: Untraced children of one run at ``BENCHMARK.json``'s ``run_seconds``.
#: A child takes, start to exit, about 11 s (repro-default), 33 s
#: (repro-5x), 11 s (flood-live) and 14 s (query-mix) on the reference
#: host (2 shared x86_64 CPUs), and 4 + 22 runs of each workload must fit
#: in 3,420 s with room for a slower machine: one child per run, two on
#: repro-default, whose two seeds halve its input spread.  The count does
#: not depend on the program's speed, so every commit is measured with
#: the same estimator.
CHILDREN = {
    "repro-default": 2,
    "repro-5x": 1,
    "flood-live": 1,
    "query-mix": 1,
}
MIN_CHILDREN = 1
#: Set-up-only children of one run, so that ``setup_s`` is the median of
#: three set-ups where one costs under a second.  query-mix's set-up
#: builds the default dataset (about 5 s), so it sets up once per run.
SETUP_CHILDREN = {
    "repro-default": 1,
    "repro-5x": 2,
    "flood-live": 2,
    "query-mix": 0,
}
#: Workloads whose cost rides on what the seed generates: repro-default
#: clusters every payload session (100-146, by seed) rather than a
#: 400-session sample, so its DLD work, and with it ``analysis_s``,
#: varies by up to half between seeds.  Each untraced child of a run
#: takes a seed of its own, and the run averages them.
SEED_PER_CHILD = {"repro-default"}
#: Distance between the seeds of one run's children.
CHILD_SEED_STRIDE = 1_000_003
#: The marks, speed samples and request times behind a child's times: the
#: result file keeps the times, not these.
TIMING_KEYS = frozenset({
    "marks", "samples", "timed_index", "sim_span", "day_marks",
    "analysis_spans", "ops_span", "request_starts", "request_ends",
    "spawned_at",
})


class RunFailed(RuntimeError):
    """A child crashed or hung; no result can be reported."""


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, mode: str, smoke: bool) -> dict:
    """Run one child to completion and return its record."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if smoke:
        command.append("--smoke")
    spawned_at = time.monotonic()
    try:
        completed = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as error:
        raise RunFailed(f"{mode} child of {workload} hung") from error
    if completed.returncode != 0:
        raise RunFailed(
            f"{mode} child of {workload} exited {completed.returncode}:\n"
            + completed.stderr[-4000:]
        )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    record["spawned_at"] = spawned_at
    return record


def child_seeds(
    workload: str, seed: int, seconds: float, run_seconds: float
) -> list[int]:
    """The seed of each untraced child of one run; the first is the
    run's own seed, which the traced child shares."""
    count = max(MIN_CHILDREN, round(CHILDREN[workload] * seconds / run_seconds))
    stride = CHILD_SEED_STRIDE if workload in SEED_PER_CHILD else 0
    return [seed + index * stride for index in range(count)]


def run_workloads(
    names: list[str], seed: int, seconds: float, run_seconds: float,
    repeats: int, trace: bool, telemetry: bool, smoke: bool,
) -> tuple[dict, dict | None]:
    """Every workload's runs, round-robin; and the telemetry record if
    asked for.  A run is
    ``{"plain": [records], "setups": [records], "traced": record | None}``."""
    runs = {name: [] for name in names}
    for _ in range(repeats):
        for name in names:
            plain = [
                spawn(name, child_seed, "plain", smoke)
                for child_seed in child_seeds(name, seed, seconds, run_seconds)
            ]
            setups = [
                spawn(name, seed, "setup", smoke)
                for _ in range(SETUP_CHILDREN[name])
            ]
            traced = spawn(name, seed, "traced", smoke) if trace else None
            runs[name].append({"plain": plain, "setups": setups, "traced": traced})
    record = None
    if telemetry:
        record = spawn("repro-default", seed, "telemetry", smoke)
    return runs, record


def check_runs(records: list[dict]) -> tuple[list[str], bool]:
    """Problems the children reported, and whether all children of each
    seed (traced or not) produced the same outputs."""
    problems = [
        f"{record['mode']}: {problem}"
        for record in records
        for problem in record["problems"]
    ]
    digests: dict[int, set] = {}
    for record in records:
        digests.setdefault(record["seed"], set()).add(record["digest"])
    for seed, seen in digests.items():
        if len(seen) > 1:
            problems.append(f"children of seed {seed} disagree on outputs: {seen}")
    agree = all(len(seen) == 1 for seen in digests.values())
    return problems, agree


def provenance(seed: int, seconds: float, repeats: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        commit = completed.stdout.strip() or None
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "machine": platform.machine(),
        "loadavg": os.getloadavg(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "trace": trace,
    }


def summaries(values: list[dict], declared: list[dict]) -> dict:
    """Each declared metric summarised over runs, with its unit."""
    return {
        metric["name"]: dict(
            summarize([run[metric["name"]] for run in values]),
            unit=metric["unit"],
        )
        for metric in declared
    }


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title} ==")
    print(
        f"{'metric':44} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} "
        f"{'min':>12} {'max':>12} {'n':>3}"
    )
    for name, summary in metrics.items():
        print(
            f"{name:44} {summary['unit']:8} {summary['median']:12.6g} "
            f"{summary['q1']:12.6g} {summary['q3']:12.6g} "
            f"{summary['min']:12.6g} {summary['max']:12.6g} {summary['n']:3d}"
        )


def benchmark(args, spec: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or [w["name"] for w in spec["workloads"]]
    trace = bool(args.trace)
    started = provenance(args.seed, args.seconds, args.repeats, trace)
    try:
        runs, telemetry = run_workloads(
            names, args.seed, args.seconds, spec["run_seconds"], args.repeats,
            trace, args.telemetry, args.smoke,
        )
    except RunFailed as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 2
    started["loadavg_end"] = os.getloadavg()
    report = {"provenance": started, "workloads": {}}
    attempted = failed = 0
    problems_total = []
    if telemetry is not None:
        overhead = summarize([100.0 * r for r in telemetry["ratios"]])
        report["telemetry"] = dict(
            telemetry, overhead_pct=overhead, verdict=telemetry_verdict(overhead)
        )
        attempted += telemetry["attempted"]
        failed += telemetry["failed"]
        problems_total.extend(f"telemetry: {p}" for p in telemetry["problems"])
    output_metrics = {}
    for name in names:
        records = [
            record
            for run in runs[name]
            for record in run["plain"] + ([run["traced"]] if trace else [])
        ]
        problems, agree = check_runs(records)
        entry = {
            "end_to_end": summaries(
                [run_values(run["plain"], run["setups"]) for run in runs[name]],
                spec["end_to_end"],
            ),
            "problems": problems,
            "children": [
                {
                    key: value
                    for key, value in record.items()
                    if key not in TIMING_KEYS
                }
                for record in records
            ],
        }
        if trace:
            entry["per_layer"] = summaries(
                [
                    per_layer_values(run["traced"], run["plain"])
                    for run in runs[name]
                ],
                spec["per_layer"],
            )
        report["workloads"][name] = entry
        for record in records:
            attempted += record["attempted"]
            failed += record["failed"]
        # children that disagree are a failure no child counted itself
        failed += int(not agree)
        problems_total.extend(f"{name}: {p}" for p in problems)
        print_table(f"{name}: end to end, seed {args.seed}", entry["end_to_end"])
        if trace:
            print_table(f"{name}: per layer, seed {args.seed}", entry["per_layer"])
        shown = entry["per_layer"] if trace else entry["end_to_end"]
        output_metrics[name] = {
            metric: {"value": summary["median"], "unit": summary["unit"]}
            for metric, summary in shown.items()
        }
    if telemetry is not None:
        overhead = report["telemetry"]["overhead_pct"]
        print(
            f"telemetry overhead: median {overhead['median']:.2f}% "
            f"[q1 {overhead['q1']:.2f}%, q3 {overhead['q3']:.2f}%] over "
            f"{overhead['n']} pairs: {report['telemetry']['verdict']} the "
            "5% bar"
        )
    for problem in problems_total:
        print(f"FAIL {problem}")
    correct = not problems_total and failed == 0
    report.update(correct=correct, attempted=attempted, failed=failed)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": output_metrics[names[0]] if len(names) == 1 else output_metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def compare(before_path: Path, after_path: Path, spec: dict) -> int:
    """Print one row per (end-to-end metric, workload); exit 1 unless
    every row is ``ok``."""
    before = json.loads(before_path.read_text())["workloads"]
    after = json.loads(after_path.read_text())["workloads"]

    def side(summary: dict) -> str:
        return f"{summary['median']:.5g} [{summary['q1']:.5g}, {summary['q3']:.5g}]"

    print(
        f"{'workload':14} {'metric':17} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'change':>8} {'spread':>7} "
        f"{'bound':>6}  verdict"
    )
    verdicts = []
    for name in (w["name"] for w in spec["workloads"]):
        if name not in before or name not in after:
            continue
        for metric in spec["end_to_end"]:
            row = compare_metric(
                before[name]["end_to_end"][metric["name"]],
                after[name]["end_to_end"][metric["name"]],
                metric["better"],
                metric["bound"],
            )
            verdicts.append(row["verdict"])
            print(
                f"{name:14} {metric['name']:17} {side(row['before']):>34} "
                f"{side(row['after']):>34} {row['change']:+8.1%} "
                f"{row['spread']:7.1%} {row['bound']:6.0%}  {row['verdict']}"
            )
    return 0 if verdicts and all(v == "ok" for v in verdicts) else 1


def main(argv=None) -> int:
    spec = load_benchmark()
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("before", type=Path)
        parser.add_argument("after", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.before, args.after, spec)
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", action="append",
        choices=[w["name"] for w in spec["workloads"]],
        help="workload to run (repeatable; default: all)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measuring time of one run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1,
        help="runs of every workload, round-robin (default: 1)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="also run a traced child per run and report per-layer metrics",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="also time telemetry overhead in six off/on pairs (about 40 s)",
    )
    parser.add_argument("--out", type=Path, help="write the full results here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="two-week, 5x-density inputs (harness tests; not a measurement)",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    # a terminated benchmark unwinds like an interrupted one, so
    # ``subprocess.run`` kills the running child and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return benchmark(args, spec)


if __name__ == "__main__":
    sys.exit(main())
