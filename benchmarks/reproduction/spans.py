"""Spans around calls into the program's layers, recorded from outside.

A :class:`Tracer` wraps the public entry points of each ``repro`` layer
and keeps one span per call — name, start, end, parent span and run id
(the simulated day's ordinal, or the request index on the query path) —
in flat in-memory arrays.  Nothing inside ``src/`` knows it is traced.

Wrapping replaces every binding of a function: the defining module and
each ``repro`` module that imported the name, so a call through any of
them is seen.  ``Bot.choose_honeypot_index`` and ``Bot.start_seconds``
are never wrapped: the orchestrator checks their identity to pick its
batched routing path, and a wrapper would push it onto the slow path.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from harness import layer_totals

#: ``(layer, "module:attribute")`` for every wrapped entry point.  An
#: attribute with a dot is a method on a class in that module.
TARGETS = (
    ("attackers.count_draws", "repro.attackers.base:Bot.session_count"),
    ("util.rng.derive_seed", "repro.util.rng:derive_seed"),
    ("attackers.intents", "repro.attackers.base:Bot.sessions_for_day"),
    (
        "attackers.infrastructure.active_hosts",
        "repro.attackers.infrastructure:StorageInfrastructure.active_hosts",
    ),
    ("attackers.routing", "repro.attackers.orchestrator:simulate_day"),
    ("attackers.substrate", "repro.attackers.orchestrator:build_substrate"),
    ("faults.flood.arrivals", "repro.faults.flood:FloodGenerator.arrivals"),
    ("honeypot.handle", "repro.honeypot.cowrie:CowrieHoneypot.handle"),
    (
        "honeypot.shell.run_line",
        "repro.honeypot.shell.engine:ShellEngine.run_line",
    ),
    ("honeypot.shell.parse_line", "repro.honeypot.shell.parser:parse_line"),
    ("faults.transport.deliver", "repro.faults.transport:DirectChannel.deliver"),
    (
        "faults.transport.deliver",
        "repro.faults.transport:ResilientChannel.deliver",
    ),
    ("honeynet.collector", "repro.honeynet.collector:Collector.ingest"),
    ("honeynet.collector", "repro.honeynet.collector:Collector.end_of_day"),
    (
        "overload.admission.offer",
        "repro.overload.admission:AdmissionController.offer",
    ),
    ("stream.supervision", "repro.stream.engine:StreamSubstrate._push"),
    ("stream.ledger.audit", "repro.stream.engine:RollingLedger.audit"),
    ("stream.engine", "repro.stream.engine:run_stream"),
    (
        "service.snapshot.publish",
        "repro.service.snapshot:SnapshotPublisher.publish_day",
    ),
    ("experiments.dataset.build", "repro.experiments.dataset:build_dataset"),
    (
        "experiments.dataset.external",
        "repro.abusedb.aggregate:build_abuse_datasets",
    ),
    (
        "experiments.dataset.external",
        "repro.abusedb.killnet:build_killnet_list",
    ),
    (
        "experiments.dataset.external",
        "repro.abusedb.shadowserver:build_shadowserver_report",
    ),
    ("experiments.dataset.clustering", "repro.experiments.dataset:Dataset.clustering"),
    ("analysis.distance.matrix", "repro.analysis.distance:distance_matrix"),
    (
        "analysis.clusterselect",
        "repro.analysis.clusterselect:cluster_with_selection",
    ),
    ("store.export", "repro.store.builder:export_indexed_tree"),
    ("store.sqlite.query", "repro.store.sqlite:SqliteStore.count"),
    ("store.sqlite.query", "repro.store.sqlite:SqliteStore.count_by"),
    ("store.sqlite.query", "repro.store.sqlite:SqliteStore.distinct"),
    ("service.cache", "repro.service.cache:QueryCache.get_or_load"),
    ("service.core.handle", "repro.service.core:QueryService.handle"),
)


def resolve(target: str):
    """``(owner, attribute, value)`` for a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, getattr(owner, attribute)


class Rebinder:
    """Replaces functions and methods, and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object, bool]] = []

    def replace(self, owner, attribute: str, replacement) -> None:
        """Set one attribute, remembering how to undo it."""
        own = attribute in vars(owner)
        self._undo.append((owner, attribute, getattr(owner, attribute), own))
        setattr(owner, attribute, replacement)

    def rebind(self, target: str, make) -> None:
        """Replace ``target`` by ``make(original)`` wherever it is bound.

        A method is replaced on its class.  A module-level function is
        replaced in every loaded ``repro`` module holding it, since
        ``from x import f`` copies the binding.
        """
        owner, attribute, original = resolve(target)
        replacement = make(original)
        if inspect.isclass(owner):
            self.replace(owner, attribute, replacement)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self.replace(module, key, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original, own = self._undo.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


class Tracer:
    """In-memory span recorder over the layer entry points."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.run_id = -1
        self._stack: list[int] = []
        self._rebinder = Rebinder()
        #: Distinct shell lines parsed, for the parse layer's reuse ratio.
        self.parsed_lines: set[str] = set()
        self.dld_distinct = 0
        self.dld_pairs = 0
        self._requests = 0

    # -- recording -----------------------------------------------------
    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def wrap(self, layer: str, function, observe=None, run_of=None):
        """A span-recording stand-in for ``function``.

        ``observe(*args, **kwargs)`` sees each call's arguments before the
        span opens; ``run_of(*args)`` gives the run id the call's spans
        carry.
        """
        layer_id = self._layer_id(layer)
        stack = self._stack
        clock = time.perf_counter
        names, parents, runs = self.name, self.parent, self.run
        starts, ends = self.start, self.end
        tracer = self

        def open_span(args, kwargs) -> tuple[int, int]:
            previous_run = tracer.run_id
            if observe is not None:
                observe(*args, **kwargs)
            if run_of is not None:
                tracer.run_id = run_of(*args)
            index = len(starts)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index, previous_run

        def close_span(index: int, previous_run: int) -> None:
            ends[index] = clock()
            stack.pop()
            if run_of is not None:
                tracer.run_id = previous_run

        if inspect.iscoroutinefunction(function):

            async def traced_async(*args, **kwargs):
                index, previous_run = open_span(args, kwargs)
                try:
                    return await function(*args, **kwargs)
                finally:
                    close_span(index, previous_run)

            return traced_async

        def traced(*args, **kwargs):
            index, previous_run = open_span(args, kwargs)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(index, previous_run)

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target layer and each registered experiment."""
        from repro.experiments.base import REGISTRY
        from repro.experiments.runner import load_all_experiments

        load_all_experiments()
        # import every module named in TARGETS, and the packages that
        # re-export them, before rebinding: each ``from x import f`` copy
        # then already exists and gets replaced too
        for _layer, target in TARGETS:
            resolve(target)
        for package in ("repro.stream", "repro.service", "repro.store"):
            importlib.import_module(package)
        special = {
            "attackers.routing": {"run_of": lambda _s, day, _d: day.toordinal()},
            "honeypot.shell.parse_line": {"observe": self._observe_parse},
            "analysis.distance.matrix": {"observe": self._observe_matrix},
            "service.core.handle": {"run_of": self._next_request},
        }
        for layer, target in TARGETS:
            options = special.get(layer, {})
            self._rebinder.rebind(
                target,
                lambda original, layer=layer, options=options: self.wrap(
                    layer, original, **options
                ),
            )
        for experiment_id, cls in REGISTRY.items():
            self.add(cls, "run", f"experiments.{experiment_id}")

    def add(self, owner, attribute: str, layer: str) -> None:
        """Wrap one more method or function, outside ``TARGETS``."""
        self._rebinder.replace(
            owner, attribute, self.wrap(layer, getattr(owner, attribute))
        )

    def uninstall(self) -> None:
        self._rebinder.restore()

    def _observe_parse(self, raw, *_rest, **_options) -> None:
        self.parsed_lines.add(raw)

    def _observe_matrix(self, token_sequences, *_rest, **_options) -> None:
        distinct = len({tuple(sequence) for sequence in token_sequences})
        self.dld_distinct += distinct
        self.dld_pairs += distinct * (distinct - 1) // 2

    def _next_request(self, *_args) -> int:
        index = self._requests
        self._requests += 1
        return index

    # -- results -------------------------------------------------------
    def totals(self) -> tuple[dict[str, list], float]:
        """Per-layer ``[primitive calls, self seconds]`` and the wall
        time covered by root spans (see :func:`harness.layer_totals`)."""
        names = [self.layers[index] for index in self.name]
        return layer_totals(names, self.parent, self.start, self.end)

    def write(self, path: Path, origin: float) -> None:
        """Write every span as columns, times in µs since ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "layers": self.layers,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "run": self.run.tolist(),
            "start_us": [round((t - origin) * 1e6, 1) for t in self.start],
            "end_us": [round((t - origin) * 1e6, 1) for t in self.end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
