"""Shared dataset construction for all experiments.

One call produces the synthetic honeynet recording *and* every external
substrate the analyses join against (abuse feeds, Killnet list,
Shadowserver report).  Derived products (the session table, the
download observations, the clustering) are computed lazily and cached
on the dataset.  Datasets are cached per configuration so a test
session or benchmark run only simulates once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.abusedb.aggregate import AbuseDatasets, build_abuse_datasets
from repro.abusedb.killnet import build_killnet_list
from repro.abusedb.shadowserver import (
    CompromisedSshReport,
    build_shadowserver_report,
)
from repro.analysis.clusterlabel import ClusterProfile, profile_clusters
from repro.analysis.clusterselect import KSelection, cluster_with_selection
from repro.analysis.distance import (
    distance_matrix,
    sample_sessions,
    session_tokens,
)
from repro.analysis.kmedoids import ClusteringResult
from repro.analysis.storage import DownloadObservation, download_observations
from repro.analysis.table import SessionTable, build_session_table
from repro.attackers.bots.mdrfckr import MDRFCKR_KEY
from repro.attackers.bots.named_campaigns import RAPPERBOT_KEY
from repro.attackers.orchestrator import SimulationResult, run_simulation
from repro.config import SimulationConfig
from repro.faults.checkpoint import config_fingerprint
from repro.faults.coverage import (
    CoverageReport,
    integrity_note,
    overload_note,
    validate_coverage,
)
from repro.honeypot.session import SessionRecord
from repro.util.hashing import sha256_hex
from repro.util.rng import RngTree

#: Max sessions fed to the O(n²) clustering stage.
CLUSTER_SAMPLE_LIMIT = 400

#: The note of a clustering experiment whose dataset has no file
#: session (a tiny scale or a short window): the clustering is empty,
#: with k = 0.
NOTHING_TO_CLUSTER = "nothing to cluster: the dataset has no file sessions (k = 0)"


@dataclass
class Clustering:
    """Clustering products shared by Figures 5, 6 and 14."""

    sessions: list[SessionRecord]
    tokens: list[list[str]]
    matrix: np.ndarray
    result: ClusteringResult
    selection: KSelection
    profiles: list[ClusterProfile]


@dataclass
class Dataset:
    """The full joined dataset one experiment run works from."""

    simulation: SimulationResult
    abuse: AbuseDatasets
    killnet_ips: set[str]
    shadowserver: CompromisedSshReport
    _table: SessionTable | None = field(default=None, repr=False)
    _observations: list[DownloadObservation] | None = field(
        default=None, repr=False
    )
    _clusterings: dict = field(default_factory=dict, repr=False)

    @property
    def config(self) -> SimulationConfig:
        return self.simulation.config

    @property
    def database(self):
        return self.simulation.database

    @property
    def whois(self):
        return self.simulation.whois

    @property
    def coverage(self) -> CoverageReport:
        """Observed-sensor-day coverage under the run's fault plan."""
        return self.simulation.coverage

    def coverage_notes(self) -> list[str]:
        """Gap annotations experiments attach to time-series figures.

        Empty under a perfect instrument; under the paper profile it
        flags October 2023 (the 48-hour outage), and under degraded
        profiles every month whose sensor-day coverage is incomplete —
        so a dark month reads as "instrument gap", never "attacks
        stopped".  When records were lost to storage corruption and
        quarantined (a recovered dataset rather than a live run), the
        loss is annotated too, and records shed by admission control
        during flood days are annotated exactly like outage gaps.
        """
        notes = self.coverage.notes()
        collector = self.simulation.collector
        generated = collector.accounting()["generated"]
        for note in (
            integrity_note(collector.quarantined, generated),
            overload_note(collector.shed, generated),
        ):
            if note is not None:
                notes.append(note)
        return notes

    @property
    def table(self) -> SessionTable:
        """Every per-session fact the experiments share (built once).

        See :mod:`repro.analysis.table`.  The dataset's database is
        fixed once built, so the table never goes stale.
        """
        if self._table is None:
            with telemetry.span("dataset.table"):
                self._table = build_session_table(self.database)
        return self._table

    def download_observations(self) -> list[DownloadObservation]:
        """The command sessions' (session, storage IP) observations
        (Figures 7-9 and 17), computed once."""
        if self._observations is None:
            commands = self.table.commands
            self._observations = download_observations(
                commands.sessions, commands.day
            )
        return self._observations

    def file_sessions(self) -> list[SessionRecord]:
        """Sessions in which a payload was loaded (the clustering input,
        :func:`~repro.analysis.statechange.loads_payload`)."""
        commands = self.table.commands
        return [
            session
            for session, payload in zip(commands.sessions, commands.payload)
            if payload
        ]

    def clustering(self, sample_limit: int = CLUSTER_SAMPLE_LIMIT) -> Clustering:
        """Tokenize, measure, select k and cluster (cached per limit)."""
        if sample_limit not in self._clusterings:
            with telemetry.span("dataset.clustering"), telemetry.profile(
                "clustering"
            ):
                sessions = sample_sessions(
                    self.file_sessions(), sample_limit, seed=self.config.seed
                )
                tokens = session_tokens(sessions)
                matrix = distance_matrix(tokens)
                result, selection = cluster_with_selection(
                    matrix, seed=self.config.seed
                )
                profiles = profile_clusters(
                    result, sessions, tokens, self.abuse
                )
                self._clusterings[sample_limit] = Clustering(
                    sessions=sessions,
                    tokens=tokens,
                    matrix=matrix,
                    result=result,
                    selection=selection,
                    profiles=profiles,
                )
        return self._clusterings[sample_limit]


#: The SHA-256 the honeypot records for the installed mdrfckr key file.
MDRFCKR_KEY_FILE_HASH = sha256_hex(MDRFCKR_KEY + "\n")

_CACHE: dict[str, Dataset] = {}


def _cache_key(config: SimulationConfig) -> str:
    """Which cached dataset ``config`` may reuse:
    :func:`~repro.faults.checkpoint.config_fingerprint` is the one
    definition of the fields that shape a dataset."""
    return config_fingerprint(config)


def build_dataset(config: SimulationConfig, use_cache: bool = True) -> Dataset:
    """Simulate (or reuse) the dataset for ``config``."""
    key = _cache_key(config)
    if use_cache and key in _CACHE:
        telemetry.count("dataset.cache_hits")
        return _CACHE[key]
    with telemetry.span("dataset.build"):
        telemetry.count("dataset.builds")
        with telemetry.span("dataset.simulate"), telemetry.profile("simulate"):
            simulation = run_simulation(config)
        # Refuse to analyse a dataset whose instrument was mostly dark
        # or mostly shedding; every figure downstream assumes the gaps
        # are annotatable, not dominant.
        validate_coverage(
            simulation.coverage,
            accounting=simulation.collector.accounting(),
        )
        with telemetry.span("dataset.external"):
            storage_ips = [
                host.ip for host in simulation.infrastructure.hosts
            ]
            abuse = build_abuse_datasets(
                simulation.malware,
                storage_ips,
                extra_hashes={MDRFCKR_KEY_FILE_HASH: "CoinMiner"},
            )
            tree = RngTree(config.seed).child("external")
            from repro.attackers.fleetplan import find_bot

            mdrfckr_pool = find_bot(simulation.bots, "mdrfckr").pool
            killnet = build_killnet_list(
                mdrfckr_pool.ips, simulation.population, tree
            )
            shadowserver = build_shadowserver_report(
                MDRFCKR_KEY, RAPPERBOT_KEY, config.scale, tree
            )
        dataset = Dataset(
            simulation=simulation,
            abuse=abuse,
            killnet_ips=killnet,
            shadowserver=shadowserver,
        )
    if use_cache:
        _CACHE[key] = dataset
    return dataset


def clear_cache() -> None:
    """Drop all cached datasets (mainly for tests)."""
    _CACHE.clear()
