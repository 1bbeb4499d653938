"""Global configuration for the honeynet simulation and analysis pipeline.

The paper analyses 33 months of traffic (December 2021 through August
2024) against 221 honeypots.  Absolute paper volumes (hundreds of
millions of sessions) are far beyond what a reproduction needs to hold in
memory, so every volume in the simulator is multiplied by
``SimulationConfig.scale``.  All distributional findings in the paper are
ratios, shares and trends, which are preserved at any scale.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from datetime import date

from repro.faults.plan import (
    PAPER_OUTAGE_END,
    PAPER_OUTAGE_START,
    FaultProfile,
)
from repro.honeypot.cowrie import DEFAULT_SESSION_TIMEOUT_S

#: First day of the observation window (paper section 3.3).
WINDOW_START = date(2021, 12, 1)
#: Last day of the observation window (paper section 3.3).
WINDOW_END = date(2024, 8, 31)

#: The honeynet maintenance outage: no sessions recorded for 48 hours
#: on October 8-9, 2023 (paper section 3.3).  Kept as module constants
#: for backward compatibility; the canonical definition lives in
#: :mod:`repro.faults.plan` and on ``FaultProfile.paper()``.
OUTAGE_START = PAPER_OUTAGE_START
OUTAGE_END = PAPER_OUTAGE_END


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters controlling dataset generation.

    Attributes:
        seed: master seed; every derived random stream is a pure function
            of this value, so runs are exactly reproducible.
        scale: multiplier applied to the paper's absolute session volumes.
            ``scale=1.0`` would regenerate the full 546M-session dataset;
            the default of ``2e-5`` yields roughly 11k SSH sessions, which
            keeps the full pipeline under a second while preserving every
            ratio the experiments measure.
        start: first simulated day (inclusive).
        end: last simulated day (inclusive).
        n_honeypots: fleet size (221 in the paper).
        n_countries: number of countries hosting honeypots (55).
        n_honeypot_ases: number of distinct ASes hosting honeypots (65).
        session_timeout_s: honeypot-side idle timeout.  Defaults to the
            sensor's own constant
            (:data:`repro.honeypot.cowrie.DEFAULT_SESSION_TIMEOUT_S`,
            three minutes) so config and sensor cannot drift.
        include_telnet: also simulate the Telnet side of the honeynet
            (the paper records it but analyses only SSH).
        faults: the fault-injection profile (see :mod:`repro.faults`).
            The default, ``FaultProfile.paper()``, models exactly the
            paper's deployment — only the October 2023 outage, no
            sensor churn, a lossless collection path — and reproduces
            the pre-fault-model pipeline byte for byte.
    """

    seed: int = 7
    scale: float = 2e-5
    start: date = WINDOW_START
    end: date = WINDOW_END
    n_honeypots: int = 221
    n_countries: int = 55
    n_honeypot_ases: int = 65
    session_timeout_s: float = DEFAULT_SESSION_TIMEOUT_S
    include_telnet: bool = True
    faults: FaultProfile = field(default_factory=FaultProfile.paper)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(
                f"scale must be a positive finite number, got {self.scale}"
            )
        if self.start > self.end:
            raise ValueError("start must not be after end")
        if self.n_honeypots < 1:
            raise ValueError("need at least one honeypot")

    def scaled(self, paper_count: float) -> float:
        """Return ``paper_count`` scaled to this configuration."""
        return paper_count * self.scale

    def replace(self, **changes: object) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class PaperNumbers:
    """Headline numbers reported by the paper, used for comparisons.

    Every experiment report prints its measured (scaled) value next to
    the corresponding paper value so that EXPERIMENTS.md can record the
    paper-vs-measured shape comparison.
    """

    total_sessions: int = 635_000_000
    ssh_sessions: int = 546_000_000
    unique_client_ips: int = 850_000
    scanning_sessions: int = 45_000_000
    scouting_sessions: int = 258_000_000
    intrusion_sessions: int = 80_000_000
    command_sessions: int = 163_000_000
    non_state_sessions: int = 94_000_000
    state_sessions: int = 69_000_000
    state_no_exec_sessions: int = 54_000_000
    exec_sessions: int = 15_000_000
    exec_file_exists_sessions: int = 3_000_000
    exec_file_missing_sessions: int = 12_000_000
    unique_hashes: int = 16_257
    abusedb_labeled_hashes: int = 700
    regex_categories: int = 59
    clusters: int = 90
    storage_ips: int = 3_000
    download_client_ips: int = 32_000
    storage_ases: int = 388
    storage_hosting_ases: int = 358
    storage_isp_ases: int = 30
    storage_down_ases: int = 36
    mdrfckr_sessions: int = 46_000_000
    mdrfckr_client_ips: int = 270_000
    login3245_sessions: int = 24_000_000
    login3245_client_ips: int = 125_000
    mdrfckr_ip_overlap: float = 0.994
    phil_sessions: int = 30_000
    phil_client_ips: int = 10_000
    phil_ases: int = 1_000
    curl_maxred_sessions: int = 200_000
    curl_maxred_requests: int = 20_000_000
    curl_maxred_client_ips: int = 4
    curl_maxred_honeypots: int = 180
    killnet_overlap_ips: int = 988
    base64_upload_ips: int = 1_624
    shadowserver_mdrfckr_hosts: int = 13_000


#: Module-level singleton with the paper's reported numbers.
PAPER = PaperNumbers()

#: Default configuration used by tests and the quickstart example.
DEFAULT_CONFIG = SimulationConfig()

#: Larger configuration used by the benchmark harness.
BENCH_CONFIG = SimulationConfig(scale=1e-4)
