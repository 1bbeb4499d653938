"""Statistics, metric values and the compare rule for the benchmark.

Pure Python on purpose: the parent process (``run.py``) imports this
module without importing ``repro``, so it can spawn, summarise and
compare without loading the program it measures.

A *child record* is the JSON object one child process prints (see
``child.py``); the parent adds ``spawned_at``.  Every metric is a value
function of child records.  ``BENCHMARK.json`` owns the list of metrics
with their units and directions; this module only computes the values.
"""

from __future__ import annotations

import bisect
import math
import re
import signal
import statistics
import time
from fractions import Fraction

#: Allowed characters of a metric or layer name.
NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")

#: Percentile ladder for tail latency, lowest first.
PERCENTILE_LADDER = ("50", "90", "99", "99.9", "99.99")

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Midpoints per rank in the Harrell-Davis weights.
HD_STEPS = 8

#: Iterations of the calibration kernel, and the kernel's duration at
#: the reference speed all reported times are scaled to.
KERNEL_STEPS = 80
REFERENCE_KERNEL_S = 50e-6
#: Seconds between two kernel samples of a child.
SAMPLE_INTERVAL_S = 0.01
#: Samples on either side of an interval that join those inside it to
#: give its speed.
SPEED_WINDOW = 3
#: A sample slower than this many times its child's median is an outlier.
OUTLIER_FACTOR = 3.0

#: Registered experiment ids, in report order (one self-time share each).
EXPERIMENT_IDS = (
    "table_stats", "fig01", "fig02", "fig03a", "fig03b", "fig04a",
    "fig04b", "fig05", "fig06", "fig07", "fig08a", "fig08b", "fig09",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "table1", "ext_stateful", "ext_ablation_tokenizer",
    "ext_validation", "ext_sensor_coverage", "ext_baseline_clustering",
    "ext_ablation_ruleorder", "ext_ablation_detection",
)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and sample count of one metric."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": list(values),
    }


def harrell_davis(ordered: list[float], fraction: float) -> float:
    """The Harrell-Davis estimate of a quantile of sorted samples.

    A weighted mean of the order statistics: sample ``i`` (from 1) weighs
    the probability a Beta((n + 1) q, (n + 1) (1 - q)) variable falls in
    ``((i - 1) / n, i / n]``.  Where one order statistic jumps with the
    inputs, its neighbours smooth it: over twelve seeds of flood-live,
    the spread of p99 day latency fell from 15 % (nearest rank) to 12 %.
    Ranks more than twelve standard deviations away weigh nothing and
    are skipped; each rank's probability is a midpoint sum.
    """
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    reach = 12 * math.sqrt(n * fraction * (1 - fraction)) + 2
    low = max(0, int(n * fraction - reach))
    high = min(n, int(n * fraction + reach) + 1)
    weights = []
    for index in range(low, high):
        points = ((index + (step + 0.5) / HD_STEPS) / n for step in range(HD_STEPS))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u))
            for u in points
        ))
    return sum(
        weight * ordered[low + offset] for offset, weight in enumerate(weights)
    ) / sum(weights)


def tail_percentile(samples: list[float]) -> tuple[str, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Percentile ``p`` of ``n`` samples has ``n - ceil(p * n / 100)``
    samples beyond its nearest rank.  With fewer than 20 samples no
    percentile qualifies and the median is returned.  The value is the
    Harrell-Davis estimate of the chosen percentile.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    chosen = PERCENTILE_LADDER[0]
    for label in PERCENTILE_LADDER:
        rank = math.ceil(Fraction(label) * n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            chosen = label
    return f"p{chosen}", harrell_davis(ordered, float(Fraction(chosen) / 100))


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
_KERNEL_KEYS = [f"k{index}" for index in range(16)]
_KERNEL_TABLE = {key: index for index, key in enumerate(_KERNEL_KEYS)}
_KERNEL_STACK = [0] * 8
_KERNEL_TEXT = "abcdefghijklmnop"


class _KernelState:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def step(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


_KERNEL_STATE = _KernelState()


def _kernel_call(a: int, b: int = 3) -> int:
    return (a ^ b) + 1


def kernel() -> int:
    """A fixed loop of interpreter work, about 50 µs on the reference host.

    It does what the program does most — function and method calls,
    dict and list operations, string slices — on a few small objects,
    so its speed follows how fast the machine runs this program's
    Python at that moment: a shared 2-CPU host ran 30-70 % slower for
    spells of seconds.  A pure-arithmetic loop tracked those spells less
    well (per-child spread of the simulation time 4-8 % against 2-3 %).
    It creates no container, so it never triggers the garbage collector.
    """
    x = 0
    table, stack, text = _KERNEL_TABLE, _KERNEL_STACK, _KERNEL_TEXT
    state, keys = _KERNEL_STATE, _KERNEL_KEYS
    for step in range(KERNEL_STEPS):
        key = keys[step & 15]
        x += table[key] + table.get(key, 0)
        x += state.step(step)
        stack.append(x & 7)
        x += stack.pop()
        x += len(text[step & 7:])
        x += _kernel_call(step, b=x & 3)
        if key.startswith("k1"):
            x += 1
        x &= 0xFFFF
    return x


class Sampler:
    """Times :func:`kernel` every ``SAMPLE_INTERVAL_S`` of wall time.

    A ``SIGALRM`` interval timer runs the kernel between two bytecodes
    of whatever the child is doing, so the child's speed is known along
    its whole run, dense or sparse marks alike.  Each sample costs about
    0.5 % of the wall, and its own time is taken out of every interval
    it falls in (:class:`Speed`).  System calls the signal interrupts
    are restarted.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # a signal that lands while a sample runs is dropped, so samples
        # never nest and both lists stay sorted
        if self._busy:
            return
        self._busy = True
        began = time.monotonic()
        kernel()
        ended = time.monotonic()
        self.starts.append(began)
        self.ends.append(ended)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        # the handler stays: a signal already on its way finds it
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def record(self) -> list[list[float]]:
        """The samples for a child record: ``[starts, ends]``."""
        return [self.starts, self.ends]


class _Samples:
    """Sorted samples with running totals of their kernel times."""

    def __init__(self, starts: list[float], ends: list[float]) -> None:
        self.starts, self.ends = starts, ends
        self.total = [0.0]
        for began, ended in zip(starts, ends):
            self.total.append(self.total[-1] + ended - began)

    def inside(self, begin: float, end: float) -> tuple[int, int]:
        """Index range of the samples that ran within ``begin``-``end``."""
        first = bisect.bisect_left(self.starts, begin)
        return first, max(first, bisect.bisect_right(self.ends, end))


class Speed:
    """A child's kernel samples, and times read against them."""

    def __init__(self, samples: list[list[float]]) -> None:
        starts, ends = samples
        self.all = _Samples(starts, ends)
        durations = [ended - began for began, ended in zip(starts, ends)]
        limit = OUTLIER_FACTOR * statistics.median(durations) if durations else 0.0
        kept = [index for index, took in enumerate(durations) if took <= limit]
        self.kept = _Samples(
            [starts[index] for index in kept], [ends[index] for index in kept]
        )

    def seconds(self, begin: float, end: float) -> float:
        """``begin`` to ``end`` in seconds at the reference speed.

        Every sample that ran inside the interval is taken out of it.
        The interval is then divided by its slowdown: the mean kernel
        time of the samples inside it and of ``SPEED_WINDOW`` more on
        either side, over the reference kernel time.  A sample that took
        over ``OUTLIER_FACTOR`` times the child's median was descheduled
        while it ran; it measures the scheduler, not the speed, and is
        left out of the mean.
        """
        first, last = self.all.inside(begin, end)
        raw = end - begin - (self.all.total[last] - self.all.total[first])
        first, last = self.kept.inside(begin, end)
        low = max(0, first - SPEED_WINDOW)
        high = min(len(self.kept.starts), last + SPEED_WINDOW)
        if high <= low:
            return raw
        mean = (self.kept.total[high] - self.kept.total[low]) / (high - low)
        return raw * REFERENCE_KERNEL_S / mean


def normalized_units(times: list[float], speed: Speed) -> list[float]:
    """Units of work between consecutive marks, in seconds at the
    reference speed."""
    return [speed.seconds(times[k], times[k + 1]) for k in range(len(times) - 1)]


def child_units(record: dict) -> list[float]:
    """A child's units at the reference speed, from its spawn on.

    The spawn is the first mark, so unit ``k`` ends at the child's mark
    ``k``; a span ``(first, last)`` of child marks is
    ``units[first + 1:last + 1]``.
    """
    return normalized_units(
        [record["spawned_at"], *record["marks"]], Speed(record["samples"])
    )


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def layer_totals(
    names: list[str],
    parents: list[int],
    starts: list[float],
    ends: list[float],
) -> tuple[dict[str, list], float]:
    """Per-layer ``[primitive calls, self seconds]`` and root coverage.

    Spans are in entry order, so a parent always precedes its children.
    Self time is a span's duration minus its direct children's
    durations; summing self time over every span of a layer counts each
    instant once, recursion included.  A call is *primitive* when no
    ancestor span has the same name, so ``sh -c`` re-entering
    ``run_line`` counts once.  Also returns the summed duration of root
    spans — the wall time some layer accounts for.
    """
    count = len(names)
    children = [0.0] * count
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            children[parent] += ends[index] - starts[index]
    totals: dict[str, list] = {}
    covered = 0.0
    stack: list[int] = []
    open_names: dict[str, int] = {}
    for index in range(count):
        parent = parents[index]
        while stack and stack[-1] != parent:
            open_names[names[stack.pop()]] -= 1
        name = names[index]
        duration = ends[index] - starts[index]
        entry = totals.setdefault(name, [0, 0.0])
        if not open_names.get(name):
            entry[0] += 1
        entry[1] += duration - children[index]
        if parent < 0:
            covered += duration
        stack.append(index)
        open_names[name] = open_names.get(name, 0) + 1
    return totals, covered


# ----------------------------------------------------------------------
# end-to-end values
# ----------------------------------------------------------------------
def setup_seconds(record: dict) -> float:
    """A child's set-up, spawn to the first timed call, at the reference
    speed."""
    return sum(child_units(record)[:record["timed_index"] + 1])


def unit_floor(records: list[dict]) -> list[float]:
    """Each unit's shortest time over the untraced children of a run.

    Children of one run simulate the same days, run the same experiments
    and send the same requests, so their units line up one to one.  A
    slow spell of the machine hits a unit in one child but rarely in all
    of them; the floor keeps what the program itself costs.
    """
    per_child = [child_units(record) for record in records]
    if len({len(units) for units in per_child}) != 1:
        raise ValueError("children of one run disagree on their units of work")
    return [min(times) for times in zip(*per_child)]


def op_latencies(records: list[dict], floor: list[float]) -> list[float]:
    """Per-operation latencies in seconds at the reference speed.

    A simulated day is the floor time from its start to the next day's
    start (the last day has no successor and is left out).  A request is
    its shortest time over the children, each read against its child's
    speed.
    """
    first = records[0]
    if first["day_marks"]:
        days = first["day_marks"]
        return [
            sum(floor[begin + 1:end + 1]) for begin, end in zip(days, days[1:])
        ]
    scaled = []
    for record in records:
        speed = Speed(record["samples"])
        scaled.append([
            speed.seconds(began, ended)
            for began, ended in zip(
                record["request_starts"], record["request_ends"]
            )
        ])
    return [min(times) for times in zip(*scaled)]


def end_to_end_values(records: list[dict]) -> dict[str, float]:
    """Every end-to-end metric of one run, from its untraced children.

    Times are in seconds at the reference speed.  Set-up (spawn to the
    first timed call) is the median over children, each child setting
    up once; the other times sum the unit floor over a phase:

    * ``wall_s`` — the timed phase;
    * ``simulate_s`` — ``run_stream`` (query-mix: the simulation its
      set-up builds the dataset from);
    * ``analysis_s`` — deriving results from the recorded sessions:
      external feeds, clustering and the experiments (repro-*), the
      per-day snapshot folds (flood-live), the query loop (query-mix);
    * ``throughput_per_s`` — generated sessions per second of
      ``run_stream``, or requests per second of the query loop.
    """
    floor = unit_floor(records)
    first = records[0]
    timed = first["timed_index"] + 1

    def span(marks: list[int]) -> float:
        begin, end = marks
        return sum(floor[begin + 1:end + 1])

    latencies = op_latencies(records, floor)
    _label, tail = tail_percentile(latencies)
    return {
        "setup_s": statistics.median(setup_seconds(record) for record in records),
        "wall_s": sum(floor[timed:]),
        "simulate_s": span(first["sim_span"]),
        "analysis_s": sum(span(marks) for marks in first["analysis_spans"]),
        "throughput_per_s": first["ops"] / span(first["ops_span"]),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
    }


def run_values(records: list[dict], setups: list[dict]) -> dict[str, float]:
    """Every end-to-end metric of one run: :func:`end_to_end_values` of
    each seed's children, averaged over the run's seeds, except
    ``setup_s``, the median set-up over every child of the run,
    set-up-only children included."""
    by_seed: dict[int, list[dict]] = {}
    for record in records:
        by_seed.setdefault(record["seed"], []).append(record)
    per_seed = [end_to_end_values(group) for group in by_seed.values()]
    values = {
        name: statistics.fmean(values[name] for values in per_seed)
        for name in per_seed[0]
    }
    values["setup_s"] = statistics.median(
        setup_seconds(record) for record in records + setups
    )
    return values


# ----------------------------------------------------------------------
# per-layer values
# ----------------------------------------------------------------------
def _share(layer: str):
    def value(record: dict) -> float:
        calls_self = record["layers"].get(layer, (0, 0.0))
        return 100.0 * calls_self[1] / record["traced_s"]

    return value


def _calls(layer: str):
    return lambda record: record["layers"].get(layer, (0, 0.0))[0]


def _us_per_call(layer: str):
    def value(record: dict) -> float:
        calls, self_s = record["layers"].get(layer, (0, 0.0))
        return 1e6 * self_s / calls if calls else 0.0

    return value


def _us_per_session(layer: str):
    def value(record: dict) -> float:
        generated = record["counts"]["generated"]
        self_s = record["layers"].get(layer, (0, 0.0))[1]
        return 1e6 * self_s / generated if generated else 0.0

    return value


def _count(key: str):
    return lambda record: record["counts"][key]


def _ratio(numerator: str, denominator: str):
    def value(record: dict) -> float:
        counts = record["counts"]
        return counts[numerator] / counts[denominator] if counts[denominator] else 0.0

    return value


def _per_layer_table() -> dict:
    """Per-layer metrics: ``name -> value of one traced child``.

    Time is reported as a share of the traced child's wall (``self_pct``),
    which the machine's speed moves less than seconds; per-call and
    per-session costs appear for the simulation layers, which every
    workload runs (query-mix in its set-up).
    """
    table: dict = {}
    makers = {
        "calls": _calls,
        "self_pct": _share,
        "us_per_call": _us_per_call,
        "us_per_session": _us_per_session,
    }

    def layer(name: str, *kinds: str) -> None:
        for kind in kinds:
            table[f"{name}.{kind}"] = makers[kind](name)

    # simulation: every workload (query-mix builds its dataset in set-up)
    layer("attackers.count_draws", "calls", "self_pct", "us_per_call")
    layer("util.rng.derive_seed", "calls", "self_pct", "us_per_call")
    layer("attackers.intents", "self_pct", "us_per_session")
    layer(
        "attackers.infrastructure.active_hosts",
        "calls", "self_pct", "us_per_call",
    )
    layer("attackers.routing", "self_pct", "us_per_session")
    layer("attackers.substrate", "self_pct")
    layer("honeypot.handle", "calls", "self_pct", "us_per_session")
    layer("honeypot.shell.run_line", "calls", "self_pct", "us_per_call")
    layer("honeypot.shell.parse_line", "calls", "self_pct", "us_per_call")
    table["honeypot.shell.parse_line.distinct_ratio"] = (
        lambda record: record["counts"]["parse_distinct"]
        / max(1, _calls("honeypot.shell.parse_line")(record))
    )
    layer("faults.transport.deliver", "self_pct", "us_per_call")
    layer("honeynet.collector", "self_pct")
    table["honeynet.collector.us_per_generated"] = _us_per_session(
        "honeynet.collector"
    )
    for key in ("generated", "stored", "shed", "dropped"):
        table[f"honeynet.collector.{key}"] = _count(key)
    layer("stream.engine", "self_pct")
    # live stream: flood-live
    layer("faults.flood.arrivals", "calls", "self_pct")
    layer("overload.admission.offer", "calls", "self_pct")
    table["overload.admission.shed_ratio"] = _ratio("shed", "generated")
    layer("stream.supervision", "calls", "self_pct")
    layer("stream.ledger.audit", "calls", "self_pct")
    table["stream.queue.peak_depth"] = _count("peak_depth")
    layer("service.snapshot.publish", "calls", "self_pct")
    table["service.snapshot.versions"] = _count("versions")
    # analysis: repro-default, repro-5x
    layer("experiments.dataset.build", "self_pct")
    layer("experiments.dataset.external", "self_pct")
    layer("experiments.dataset.clustering", "calls", "self_pct")
    layer("analysis.distance.matrix", "calls", "self_pct")
    table["analysis.distance.matrix.distinct_sequences"] = _count("dld_distinct")
    table["analysis.distance.matrix.pairs"] = _count("dld_pairs")
    layer("analysis.clusterselect", "calls", "self_pct")
    for experiment_id in EXPERIMENT_IDS:
        layer(f"experiments.{experiment_id}", "self_pct")
    # store and service: query-mix
    layer("store.export", "calls", "self_pct")
    table["store.export.rows"] = _count("export_rows")
    layer("store.sqlite.query", "calls", "self_pct")
    layer("service.core.handle", "calls", "self_pct")
    layer("service.cache", "self_pct")
    table["service.cache.hit_ratio"] = _count("cache_hit_ratio")
    table["service.cache.misses"] = _count("cache_misses")
    table["service.cache.coalesced"] = _count("cache_coalesced")
    # harness
    table["trace.wall_s"] = lambda record: record["traced_s"]
    table["trace.unattributed_pct"] = (
        lambda record: 100.0 * record["unattributed_s"] / record["traced_s"]
    )
    return table


PER_LAYER = _per_layer_table()

#: Per-layer metrics computed from a whole run rather than one child.
RUN_LEVEL = ("trace.overhead_pct",)

#: The bar the telemetry overhead is judged against, in percent.
TELEMETRY_BAR_PCT = 5.0


def per_layer_values(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one run: its traced child's layers and
    the tracing overhead (traced vs untraced child wall on the same
    seed, spawn to the end of the timed phase, at the reference speed)."""
    values = {name: value(traced) for name, value in PER_LAYER.items()}
    untraced_wall = statistics.median(
        sum(child_units(r)) for r in untraced if r["seed"] == traced["seed"]
    )
    values["trace.overhead_pct"] = 100.0 * (
        sum(child_units(traced)) / untraced_wall - 1.0
    )
    return values


def telemetry_verdict(summary: dict) -> str:
    """``under`` / ``over`` the 5 % bar, or ``unresolved`` when the
    quartiles straddle it."""
    if summary["q3"] < TELEMETRY_BAR_PCT:
        return "under"
    if summary["q1"] > TELEMETRY_BAR_PCT:
        return "over"
    return "unresolved"


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def compare_metric(
    before: dict, after: dict, better: str, bound: float
) -> dict:
    """One compare row: medians, quartiles, change and verdict.

    ``change`` is the relative change of the median, signed so that a
    positive number is a worsening.  The row is ``unresolved`` when
    either side's quartile spread (as a share of its median) exceeds the
    bound, unless every run of ``after`` beats every run of ``before``;
    otherwise ``regressed`` when the worsening exceeds the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (after["median"] - before["median"]) / before["median"]
    spread = max(
        (side["q3"] - side["q1"]) / side["median"] for side in (before, after)
    )
    if better == "lower":
        after_wins = max(after["values"]) < min(before["values"])
    else:
        after_wins = min(after["values"]) > max(before["values"])
    if after_wins:
        verdict = "ok"
    elif spread > bound:
        verdict = "unresolved"
    elif change > bound:
        verdict = "regressed"
    else:
        verdict = "ok"
    return {
        "before": before,
        "after": after,
        "change": change,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }
