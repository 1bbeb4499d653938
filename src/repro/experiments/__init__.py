"""Per-figure/table experiments reproducing the paper's evaluation."""

from repro.experiments.base import (
    REGISTRY,
    Experiment,
    ExperimentResult,
    get_experiment,
    register,
)
from repro.experiments.dataset import (
    MDRFCKR_KEY_FILE_HASH,
    Clustering,
    Dataset,
    build_dataset,
    clear_cache,
)
from repro.experiments.runner import (
    load_all_experiments,
    render_report,
    run_all,
    run_experiment,
)

__all__ = [
    "REGISTRY",
    "Experiment",
    "ExperimentResult",
    "get_experiment",
    "register",
    "MDRFCKR_KEY_FILE_HASH",
    "Clustering",
    "Dataset",
    "build_dataset",
    "clear_cache",
    "load_all_experiments",
    "render_report",
    "run_all",
    "run_experiment",
]
