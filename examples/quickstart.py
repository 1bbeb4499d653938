#!/usr/bin/env python3
"""Quickstart: simulate the honeynet and reproduce the headline results.

Builds a scaled-down 33-month dataset (a few seconds), prints the
section-3.3 dataset statistics, the Figure 1 behavioural shift and the
Figure 2 bot ranking — the paper's core findings — as text reports.

Run:  python examples/quickstart.py [--scale 2e-5] [--seed 7]
"""

from __future__ import annotations

import argparse

from repro import SimulationConfig, build_dataset
from repro.experiments.runner import run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=2e-5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    config = SimulationConfig(scale=args.scale, seed=args.seed)
    print(f"simulating 33 months at scale={config.scale} ...")
    dataset = build_dataset(config)
    db = dataset.database
    print(
        f"done: {len(db)} sessions total, {len(db.ssh_sessions())} SSH, "
        f"{len(db.unique_client_ips())} unique client IPs, "
        f"{len(db.unique_hashes())} unique file hashes\n"
    )

    for experiment_id in ("table_stats", "fig01", "fig02"):
        result = run_experiment(experiment_id, dataset)
        print(result.render())
        print()


if __name__ == "__main__":
    main()
