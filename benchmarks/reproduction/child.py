"""One child process of the benchmark: one run of one workload.

``run.py`` starts a fresh child per run so every run starts cold, as a
``repro report`` user does, and runs one child at a time.  Modes:

* ``plain`` — the end-to-end run: only the day clock is attached, and
  the record carries the marks of every phase and operation;
* ``setup`` — as ``plain``, but the child stops at the workload's first
  timed call: one more set-up time for the run;
* ``traced`` — the day clock plus every layer entry point wrapped (see
  ``spans.py``); spans are written to ``out/trace-<workload>.json``;
* ``telemetry`` — interleaved off/on pairs of the default simulation.

The child prints one JSON object, its record, as the last line of
standard output.  Times are ``time.monotonic()`` readings, a clock the
parent shares, so set-up is measured from the moment the parent spawned
the child.  From its first lines to the end of the timed phase the child
samples its own speed (``harness.Sampler``); the record carries the
samples, and the parent reads every time against them.
"""

import time

T_FIRST = time.monotonic()
ORIGIN = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"
#: Traces, temporary stores and every other temporary file (``TMPDIR``,
#: which Python and SQLite read); nothing is written outside it.
WORKDIR = HERE / "out"


def import_program() -> None:
    """Put this checkout's ``src`` first and make sure it is what loads."""
    sys.path.insert(0, str(SOURCE))
    import repro

    loaded = Path(repro.__file__).resolve()
    if SOURCE.resolve() not in loaded.parents:
        raise SystemExit(f"repro loaded from {loaded}, not from {SOURCE}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(args, sampler) -> dict:
    from workloads import WORKLOADS, DayClock, Marks

    marks = Marks([T_FIRST])
    marks.now()
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    clock = DayClock(marks)
    clock.install()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, WORKDIR, marks)
    workload.setup()
    timed_index = marks.now()
    if args.mode == "setup":
        sampler.stop()
        return {
            "marks": marks,
            "samples": sampler.record(),
            "timed_index": timed_index,
        }
    workload.timed()
    marks.now()
    sampler.stop()
    record = {
        "marks": marks,
        "samples": sampler.record(),
        "timed_index": timed_index,
        "traced_s": marks[-1] - T_FIRST,
    }
    if tracer is not None:
        tracer.uninstall()
        layers, covered = tracer.totals()
        record["layers"] = layers
        record["unattributed_s"] = record["traced_s"] - covered
        tracer.write(WORKDIR / f"trace-{args.workload}.json", ORIGIN)
    else:
        record.update(workload.spans(clock))
    record["peak_rss_mb"] = peak_rss_mb()
    checked = workload.check()
    counts = {
        "export_rows": 0,
        "cache_hit_ratio": 0.0,
        "cache_misses": 0,
        "cache_coalesced": 0,
    }
    counts.update(checked.counts)
    if tracer is not None:
        counts.update(
            parse_distinct=len(tracer.parsed_lines),
            dld_distinct=tracer.dld_distinct,
            dld_pairs=tracer.dld_pairs,
        )
    record.update(
        attempted=checked.attempted,
        failed=checked.failed,
        problems=checked.problems,
        digest=checked.digest,
        counts=counts,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--mode", choices=("plain", "setup", "traced", "telemetry"), required=True
    )
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    WORKDIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR)
    from harness import Sampler

    sampler = Sampler()
    sampler.start()
    import_program()
    if args.mode == "telemetry":
        from workloads import TELEMETRY_PAIRS, Marks, telemetry_pairs

        record = telemetry_pairs(args.seed, args.smoke, Marks([T_FIRST]), sampler)
        sampler.stop()
        record.update(
            attempted=2 * TELEMETRY_PAIRS,
            failed=int(bool(record["problems"])),
        )
    else:
        record = run_workload(args, sampler)
    record.update(workload=args.workload, seed=args.seed, mode=args.mode)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
