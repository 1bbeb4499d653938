"""The benchmark's workloads, each run once per child process.

A workload has a set-up (not timed: interpreter start, imports, the
experiment registry and, for query-mix, the dataset build), a timed
phase, and a check of its own outputs afterwards.  Every input is a
pure function of the seed: the simulation config, and for query-mix the
request sequence drawn from ``random.Random(seed)``.

All four run single-process on the serial engine, as a closed loop
with one operation outstanding.  Calls into ``repro`` go through
module attributes (``datasets.build_dataset``, not an imported copy) so
a tracer installed before set-up sees them.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import random
import shutil
import statistics
import tempfile
import time
import traceback
from datetime import date
from pathlib import Path

from repro.analysis.regexrules import RULES, UNKNOWN_CATEGORY
from repro.config import SimulationConfig
from repro.experiments import dataset as datasets
from repro.experiments import runner
from repro.faults.plan import FloodFaults
from repro.service import QueryService, SnapshotPublisher
from repro.service.core import OUTCOME_OK, Request
from repro.store import SqliteStore
from repro.store import builder
from repro.stream import StreamPolicy
from repro.stream import engine
from repro.util.timeutils import days_between

from harness import Sampler, Speed, normalized_units
from spans import Rebinder

#: Dataset digest of the default configuration at seed 7 (13,429 stored,
#: 29 dropped in the October 2023 outage).
GOLDEN_DIGEST = "9fa2ad596597cbad5973236559d44b6cd438500551e43cdc9d89373df31f9ae8"
GOLDEN_SEED = 7

#: repro-5x: five times the default session density, full window.
DENSE_SCALE = 1e-4

#: The harness tests' smoke window: two weeks at 5x density.
SMOKE_SCALE = 1e-4
SMOKE_WINDOW = (date(2023, 1, 1), date(2023, 1, 14))

#: Twice the 30,000 first planned: 30,000 requests last about 2.3 s, no
#: longer than a slow spell of the shared host.
QUERY_REQUESTS = 60_000
SMOKE_REQUESTS = 2_000
HOT_POOL = 5
HOT_SHARE = 0.5
CLIENT_ID = "bench-client"

#: Off/on pairs of the telemetry overhead measurement.
TELEMETRY_PAIRS = 6


def _config(seed: int, smoke: bool, **fields) -> SimulationConfig:
    if smoke:
        start, end = SMOKE_WINDOW
        fields.update(scale=SMOKE_SCALE, start=start, end=end)
    return SimulationConfig(seed=seed, **fields)


def _with_flood(config: SimulationConfig) -> SimulationConfig:
    return config.replace(
        faults=dataclasses.replace(
            config.faults, flood=FloodFaults.from_name("burst")
        )
    )


class Marks(list):
    """Monotonic timestamps at the boundaries of a child's units of work
    (days, experiments, snapshot publishes).  Units are later read
    against the child's kernel samples (``harness.normalized_units``).
    """

    def now(self) -> int:
        """Record the time; returns the mark's index."""
        self.append(time.monotonic())
        return len(self) - 1


class DayClock:
    """Times the simulation from outside, cheaply enough for untraced runs.

    Marks the start of ``run_stream``, each simulated day and the end of
    ``run_stream``.  The gap between consecutive day starts is one day's
    latency, including the previous day's boundary work (gate drain,
    audit, snapshot publish).  Snapshot publishes are bracketed by marks
    of their own, so their time is known on its own.
    """

    def __init__(self, marks: Marks) -> None:
        self.marks = marks
        #: Mark index of each simulated day's start.
        self.day_marks: list[int] = []
        #: Mark indices bounding the last ``run_stream`` call.
        self.sim_span: tuple[int, int] | None = None
        #: Mark indices bounding each snapshot publish.
        self.publish_spans: list[tuple[int, int]] = []
        self._rebinder = Rebinder()

    def install(self) -> None:
        marks = self.marks
        days = self.day_marks
        publishes = self.publish_spans

        def day_timer(original):
            def timed_day(*args, **kwargs):
                days.append(marks.now())
                return original(*args, **kwargs)

            return timed_day

        def run_timer(original):
            def timed_run(*args, **kwargs):
                first = marks.now()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.sim_span = (first, marks.now())

            return timed_run

        def publish_timer(original):
            def timed_publish(*args, **kwargs):
                first = marks.now()
                try:
                    return original(*args, **kwargs)
                finally:
                    publishes.append((first, marks.now()))

            return timed_publish

        self._rebinder.rebind("repro.attackers.orchestrator:simulate_day", day_timer)
        self._rebinder.rebind("repro.stream.engine:run_stream", run_timer)
        self._rebinder.rebind(
            "repro.service.snapshot:SnapshotPublisher.publish_day", publish_timer
        )

    def spans(self) -> dict:
        """The simulation's span and day starts, for a child record."""
        return {"sim_span": self.sim_span, "day_marks": self.day_marks}


@dataclasses.dataclass
class Checked:
    """A workload's verdict on its own outputs."""

    attempted: int
    failed: int
    problems: list[str]
    #: Identity of the outputs; equal across children of one seed,
    #: traced or not.
    digest: str
    counts: dict


def _collector_counts(result, publisher=None) -> dict:
    collector = result.collector
    return {
        "generated": collector.generated,
        "stored": len(collector.sessions),
        "shed": collector.shed,
        "dropped": collector.dropped,
        "peak_depth": (
            result.stream.queue_peak_depth if result.stream is not None else 0
        ),
        "versions": publisher.published if publisher is not None else 0,
    }


def _conservation_problems(collector) -> list[str]:
    problems = []
    if not collector.accounting_balanced():
        problems.append(f"conservation law violated: {collector.accounting()}")
    if collector.admission is not None and collector.admitted != (
        len(collector.sessions) + collector.deduplicated
    ):
        problems.append("extended conservation law violated")
    return problems


class ReproPipeline:
    """A full reproduction: simulate, build the dataset, run every
    experiment (``build_dataset`` uncached, then ``run_experiment``)."""

    def __init__(
        self, config: SimulationConfig, golden: str | None, marks: Marks
    ) -> None:
        self.config = config
        self.golden = golden
        self.marks = marks

    def setup(self) -> None:
        self.ids = runner.load_all_experiments()

    def timed(self) -> None:
        self.dataset = datasets.build_dataset(self.config, use_cache=False)
        self.marks.now()
        self.results = {}
        for experiment_id in self.ids:
            try:
                self.results[experiment_id] = runner.run_experiment(
                    experiment_id, self.dataset
                )
            except Exception:  # one experiment's failure is counted, not fatal
                self.results[experiment_id] = traceback.format_exc(limit=3)
            self.marks.now()

    def spans(self, clock: DayClock) -> dict:
        """Simulation, then analysis up to the last experiment; the
        operations are the generated sessions."""
        return dict(
            clock.spans(),
            analysis_spans=[(clock.sim_span[1], len(self.marks) - 1)],
            ops=self.dataset.simulation.collector.generated,
            ops_span=clock.sim_span,
        )

    def check(self) -> Checked:
        simulation = self.dataset.simulation
        problems = _conservation_problems(simulation.collector)
        digest = self.dataset.database.digest()
        if self.golden is not None and digest != self.golden:
            problems.append(f"digest {digest} != golden {self.golden}")
        failed = int(bool(problems))
        for experiment_id, result in self.results.items():
            if isinstance(result, str) or not result.rows:
                failed += 1
                reason = result if isinstance(result, str) else "no rows"
                problems.append(f"experiment {experiment_id} failed: {reason}")
        return Checked(
            attempted=1 + len(self.ids),
            failed=failed,
            problems=problems,
            digest=digest,
            counts=_collector_counts(simulation),
        )


class FloodLive:
    """The live stream under a burst flood, snapshots published daily."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config

    def setup(self) -> None:
        self.publisher = SnapshotPublisher()

    def timed(self) -> None:
        self.result = engine.run_stream(
            self.config, policy=StreamPolicy.live(), publisher=self.publisher
        )

    def spans(self, clock: DayClock) -> dict:
        """The live stream; its analysis is the snapshot publishing."""
        return dict(
            clock.spans(),
            analysis_spans=clock.publish_spans,
            ops=self.result.collector.generated,
            ops_span=clock.sim_span,
        )

    def check(self) -> Checked:
        problems = _conservation_problems(self.result.collector)
        verdict = self.result.stream.ledger_verdict
        if not verdict or not verdict["balanced"]:
            problems.append(f"rolling ledger verdict: {verdict}")
        if self.publisher.published < 1:
            problems.append("no snapshot published")
        return Checked(
            attempted=1,
            failed=int(bool(problems)),
            problems=problems,
            digest=self.result.database.digest(),
            counts=_collector_counts(self.result, self.publisher),
        )


def make_requests(
    seed: int,
    days: list[str],
    sensors: list[str],
    labels: list[str],
    total: int,
) -> list[Request]:
    """The query-mix load: half from a small hot pool, half cold.

    Cold queries pick a day, sensor or label uniformly, so a few
    thousand distinct keys compete for the service's 256-entry cache.
    """
    rng = random.Random(seed)

    def cold() -> Request:
        kind = rng.randrange(4)
        if kind == 0:
            return Request(CLIENT_ID, "count", {"day": rng.choice(days)})
        if kind == 1:
            return Request(
                CLIENT_ID, "count_by", {"by": "rule_label", "day": rng.choice(days)}
            )
        if kind == 2:
            return Request(
                CLIENT_ID,
                "distinct",
                {"by": "client_ip", "sensor_id": rng.choice(sensors)},
            )
        return Request(
            CLIENT_ID, "count_by", {"by": "day", "rule_label": rng.choice(labels)}
        )

    hot = [cold() for _ in range(HOT_POOL)]
    return [
        rng.choice(hot) if rng.random() < HOT_SHARE else cold()
        for _ in range(total)
    ]


def _request_key(request: Request) -> str:
    return json.dumps([request.kind, dict(request.params)], sort_keys=True)


def _store_answer(store: SqliteStore, request: Request):
    """The uncached store's answer, the reference every response must equal."""
    params = dict(request.params)
    by = params.pop("by", None)
    if request.kind == "count":
        return {"count": store.count(**params)}
    if request.kind == "count_by":
        return store.count_by(by, **params)
    return store.distinct(by, **params)


class QueryMix:
    """The store's write path, then a closed loop of queries against it.

    Set-up builds the default dataset; the timed phase exports it as an
    indexed tree, opens the index read-only behind a ``QueryService``
    and sends the requests one at a time.
    """

    def __init__(
        self, config: SimulationConfig, workdir: Path, requests: int,
        golden: str | None, marks: Marks,
    ) -> None:
        self.config = config
        self.workdir = workdir
        self.total = requests
        self.golden = golden
        self.marks = marks

    def setup(self) -> None:
        self.dataset = datasets.build_dataset(self.config, use_cache=False)
        days = [
            day.isoformat()
            for day in days_between(self.config.start, self.config.end)
        ]
        sensors = [
            honeypot.honeypot_id
            for honeypot in self.dataset.simulation.honeynet.honeypots
        ]
        labels = [rule.name for rule in RULES] + [UNKNOWN_CATEGORY]
        self.requests = make_requests(
            self.config.seed, days, sensors, labels, self.total
        )

    def timed(self) -> None:
        clock = time.monotonic
        marks = self.marks
        self.tree = Path(tempfile.mkdtemp(prefix="query-mix-", dir=self.workdir))
        index = builder.export_indexed_tree(
            self.dataset.database.sessions, self.tree, config=self.config
        )
        marks.now()
        self.store = SqliteStore.open(index, read_only=True)
        service = QueryService(store=self.store, seed=self.config.seed)
        starts: list[float] = []
        ends: list[float] = []
        responses = []

        async def closed_loop() -> None:
            for request in self.requests:
                starts.append(clock())
                responses.append(await service.handle(request))
                ends.append(clock())

        first = marks.now()
        asyncio.run(closed_loop())
        self.ops_span = (first, marks.now())
        self.request_times = (starts, ends)
        self.responses = responses
        self.service = service

    def spans(self, clock: DayClock) -> dict:
        """The set-up's simulation; the query loop is the analysis, and
        each request is timed alone."""
        starts, ends = self.request_times
        return {
            "sim_span": clock.sim_span,
            "day_marks": [],
            "analysis_spans": [self.ops_span],
            "ops": len(self.requests),
            "ops_span": self.ops_span,
            "request_starts": starts,
            "request_ends": ends,
        }

    def check(self) -> Checked:
        try:
            return self._check()
        finally:
            self.store.close()
            shutil.rmtree(self.tree, ignore_errors=True)

    def _check(self) -> Checked:
        problems = _conservation_problems(self.dataset.simulation.collector)
        dataset_digest = self.dataset.database.digest()
        if self.golden is not None and dataset_digest != self.golden:
            problems.append(f"digest {dataset_digest} != golden {self.golden}")
        # the export and its dataset count as one operation, each request
        # as another
        failed = int(bool(problems))
        expected: dict[str, object] = {}
        answer_ids: dict[int, str] = {}
        answers = hashlib.sha256()
        wrong = 0
        for request, response in zip(self.requests, self.responses):
            key = _request_key(request)
            if key not in expected:
                expected[key] = _store_answer(self.store, request)
            payload = response.payload
            if response.outcome != OUTCOME_OK or payload != expected[key]:
                wrong += 1
                continue
            # cache hits hand back the same object; hash each object once
            if id(payload) not in answer_ids:
                answer_ids[id(payload)] = hashlib.sha256(
                    json.dumps(payload, sort_keys=True).encode()
                ).hexdigest()
            answers.update(answer_ids[id(payload)].encode())
        if wrong:
            problems.append(f"{wrong} of {len(self.requests)} responses wrong")
        cache = self.service.cache
        counts = _collector_counts(self.dataset.simulation)
        counts.update(
            export_rows=self.store.meta().record_count,
            cache_hit_ratio=cache.hit_ratio,
            cache_misses=cache.misses,
            cache_coalesced=cache.coalesced,
        )
        return Checked(
            attempted=1 + len(self.requests),
            failed=failed + wrong,
            problems=problems,
            digest=f"{dataset_digest}:{answers.hexdigest()}",
            counts=counts,
        )


def _golden(seed: int, smoke: bool) -> str | None:
    return GOLDEN_DIGEST if seed == GOLDEN_SEED and not smoke else None


#: Workload name -> constructor over ``(seed, smoke, workdir, marks)``.
WORKLOADS = {
    "repro-default": lambda seed, smoke, workdir, marks: ReproPipeline(
        _config(seed, smoke), _golden(seed, smoke), marks
    ),
    "repro-5x": lambda seed, smoke, workdir, marks: ReproPipeline(
        _config(seed, smoke, scale=DENSE_SCALE), None, marks
    ),
    "flood-live": lambda seed, smoke, workdir, marks: FloodLive(
        _with_flood(_config(seed, smoke))
    ),
    "query-mix": lambda seed, smoke, workdir, marks: QueryMix(
        _config(seed, smoke),
        workdir,
        SMOKE_REQUESTS if smoke else QUERY_REQUESTS,
        _golden(seed, smoke),
        marks,
    ),
}


def telemetry_pairs(seed: int, smoke: bool, marks: Marks, sampler: Sampler) -> dict:
    """Interleaved off/on pairs of ``run_simulation`` at the default
    config, alternating which side runs first.

    Both sides of a pair simulate the same days, so the pair's ratio is
    the median over days of the day's time with telemetry on over its
    time with it off (at the reference speed): a slow spell that hits
    some days of one side does not move it.
    """
    from repro import telemetry
    from repro.attackers.orchestrator import run_simulation

    config = _config(seed, smoke)
    clock = DayClock(marks)
    clock.install()
    days = {False: [], True: []}
    digests = set()

    def run(collect: bool) -> None:
        first_day = len(clock.day_marks)
        if collect:
            with telemetry.collecting():
                result = run_simulation(config)
        else:
            result = run_simulation(config)
        days[collect].append(clock.day_marks[first_day:])
        digests.add(result.database.digest())

    for pair in range(TELEMETRY_PAIRS):
        first = pair % 2 == 1
        run(first)
        run(not first)
    units = normalized_units(marks, Speed(sampler.record()))

    def day_times(day_marks: list[int]) -> list[float]:
        return [units[mark - 1] for mark in day_marks[1:]]

    ratios = [
        statistics.median(
            on_day / off_day
            for on_day, off_day in zip(day_times(on), day_times(off))
        )
        - 1.0
        for off, on in zip(days[False], days[True])
    ]
    problems = [] if len(digests) == 1 else ["telemetry changed the digest"]
    return {"ratios": ratios, "problems": problems}
