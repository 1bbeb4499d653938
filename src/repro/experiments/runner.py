"""Run experiments and render reports (the per-figure harness)."""

from __future__ import annotations

import importlib

from repro import telemetry
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.experiments.base import REGISTRY, ExperimentResult, get_experiment
from repro.experiments.dataset import Dataset, build_dataset

#: Modules that register experiments (import order = report order).
_EXPERIMENT_MODULES = (
    "repro.experiments.table_stats",
    "repro.experiments.fig01_state_change",
    "repro.experiments.fig02_non_state_bots",
    "repro.experiments.fig03_state_mod",
    "repro.experiments.fig04_file_exec",
    "repro.experiments.fig05_dld_matrix",
    "repro.experiments.fig06_clusters_time",
    "repro.experiments.fig07_sankey",
    "repro.experiments.fig08_as_age_size",
    "repro.experiments.fig09_storage_activity",
    "repro.experiments.fig10_passwords",
    "repro.experiments.fig11_cowrie_defaults",
    "repro.experiments.fig12_mdrfckr_activity",
    "repro.experiments.fig13_mdrfckr_variant",
    "repro.experiments.fig14_category_dld",
    "repro.experiments.fig15_curl_campaign",
    "repro.experiments.fig16_unique_commands",
    "repro.experiments.fig17_storage_astypes",
    "repro.experiments.table1_regex",
    "repro.experiments.extensions",
)


def load_all_experiments() -> list[str]:
    """Import every experiment module; returns registered ids."""
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)
    return list(REGISTRY)


def run_experiment(
    experiment_id: str,
    dataset: Dataset | None = None,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> ExperimentResult:
    """Run one experiment by id."""
    load_all_experiments()
    if dataset is None:
        dataset = build_dataset(config)
    with telemetry.span(f"experiment.{experiment_id}"):
        result = get_experiment(experiment_id).run(dataset)
    telemetry.count("experiments.completed")
    return result


def run_all(
    dataset: Dataset | None = None,
    config: SimulationConfig = DEFAULT_CONFIG,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment against one dataset."""
    ids = load_all_experiments()
    if dataset is None:
        dataset = build_dataset(config)
    return {
        experiment_id: run_experiment(experiment_id, dataset)
        for experiment_id in ids
    }


def render_report(results: dict[str, ExperimentResult]) -> str:
    """One text report covering every experiment."""
    return "\n\n".join(result.render() for result in results.values())


def main() -> None:
    """CLI entry point: run everything and print the report."""
    import argparse

    parser = argparse.ArgumentParser(description="repro experiment runner")
    parser.add_argument("--scale", type=float, default=DEFAULT_CONFIG.scale)
    parser.add_argument("--seed", type=int, default=DEFAULT_CONFIG.seed)
    parser.add_argument(
        "--only", nargs="*", default=None, help="experiment ids to run"
    )
    parser.add_argument(
        "--telemetry", type=str, default=None, metavar="PATH",
        help="collect run telemetry and write it as JSON",
    )
    args = parser.parse_args()
    config = SimulationConfig(scale=args.scale, seed=args.seed)
    load_all_experiments()
    registry = telemetry.enable() if args.telemetry else None
    try:
        dataset = build_dataset(config)
        ids = args.only or list(REGISTRY)
        results = {eid: run_experiment(eid, dataset) for eid in ids}
    finally:
        if registry is not None:
            telemetry.disable()
    print(render_report(results))
    if registry is not None:
        meta = {
            "command": "experiments.runner",
            "seed": config.seed,
            "scale": config.scale,
        }
        telemetry.write_telemetry_json(args.telemetry, registry, meta=meta)
        print(f"wrote {args.telemetry}")


if __name__ == "__main__":
    main()
