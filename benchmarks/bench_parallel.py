"""Serial baselines: the day loop over two months and the DLD matrix
over 300 random sequences.

Every stage of the pipeline runs in one process (see
``docs/parallelism.md`` for the measurements behind that), so these
keep the two largest serial costs visible in the regular
pytest-benchmark table alongside the per-figure benches.  The
``repro bench`` CLI subcommand is the headline harness.
"""

from __future__ import annotations

import random
from datetime import date

from repro.analysis.distance import clear_distance_caches, distance_matrix
from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig

_BENCH_WINDOW = SimulationConfig(
    seed=99, scale=1e-4, start=date(2022, 5, 1), end=date(2022, 6, 30)
)


def _token_sequences(count: int) -> list[list[str]]:
    rng = random.Random(0)
    vocabulary = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "rm", "-rf"]
    return [
        [rng.choice(vocabulary) for _ in range(rng.randrange(4, 48))]
        for _ in range(count)
    ]


def test_simulation_two_months_serial(benchmark):
    result = benchmark.pedantic(
        lambda: run_simulation(_BENCH_WINDOW), rounds=3, iterations=1
    )
    assert len(result.database) > 0


def test_dld_matrix_300_serial(benchmark):
    tokens = _token_sequences(300)

    def build():
        clear_distance_caches()
        return distance_matrix(tokens)

    matrix = benchmark.pedantic(build, rounds=3, iterations=1)
    assert matrix.shape == (300, 300)

