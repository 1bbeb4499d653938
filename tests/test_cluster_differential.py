"""Differential oracle suite: exact vs LSH clustering, online vs batch.

The exact pipeline is the oracle; every pruned or incremental path is
pinned against it:

* ``mode="lsh"`` reproduces the exact-mode distance matrix, cluster
  labels, medoid sets and the Figure 5/6/14 artifact digests
  bit-identically at paper scale and across the {none, paper, stress}
  fault profiles — the activation-floor contract of
  :mod:`repro.analysis.sketch` made observable.
* The online assign-or-spawn clusterer replays the batch sample as a
  stream; its divergence from the batch K-medoids labels is pinned
  with a committed golden (pair agreement ≥ the floor, exact golden
  values for the shared dataset).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import PROFILES, short_fault_config
from repro import telemetry
from repro.analysis.distance import distance_matrix
from repro.analysis.online import OnlineClusterer, pair_agreement
from repro.experiments.dataset import Dataset, build_dataset
from repro.experiments.runner import load_all_experiments
from repro.util.hashing import sha256_hex

pytestmark = pytest.mark.cluster

#: Figures whose artifacts depend on the distance pipeline.
DISTANCE_FIGURES = ("fig05", "fig06", "fig14")

#: Committed golden for the online replay over the shared paper-scale
#: dataset (seed 7): the incremental clusterer's divergence from the
#: batch oracle is allowed, but it must be exactly *this* divergence.
ONLINE_GOLDEN = {"clusters": 20, "agreement": 0.9579}

#: Floor on online-vs-batch pair agreement (Rand index) — applies to
#: every profile, not just the golden dataset.
ONLINE_AGREEMENT_FLOOR = 0.80


def lsh_sibling(dataset: Dataset) -> Dataset:
    """A dataset sharing the simulation but clustering in LSH mode."""
    return Dataset(
        simulation=dataset.simulation,
        abuse=dataset.abuse,
        killnet_ips=dataset.killnet_ips,
        shadowserver=dataset.shadowserver,
        cluster_mode="lsh",
    )


@pytest.fixture(scope="module")
def profile_datasets():
    """One dataset per fault profile (short window, shared cache)."""
    return {
        profile: build_dataset(short_fault_config(profile))
        for profile in PROFILES
    }


class TestExactVsLsh:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_matrix_labels_medoids_identical(self, profile_datasets, profile):
        ds = profile_datasets[profile]
        exact = ds.clustering(mode="exact")
        lsh = ds.clustering(mode="lsh")
        assert np.array_equal(exact.matrix, lsh.matrix)
        assert np.array_equal(exact.result.labels, lsh.result.labels)
        assert exact.result.medoids == lsh.result.medoids
        assert exact.selection.chosen_k == lsh.selection.chosen_k
        # paper scale sits below the activation floor: nothing pruned
        assert lsh.approx is not None
        assert lsh.approx.exact
        assert lsh.approx.pruned_pairs == 0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_figure_digests_identical(self, profile_datasets, profile):
        from repro.experiments.base import get_experiment

        load_all_experiments()
        ds = profile_datasets[profile]
        sibling = lsh_sibling(ds)
        for experiment_id in DISTANCE_FIGURES:
            experiment = get_experiment(experiment_id)
            exact_digest = sha256_hex(experiment.run(ds).to_json())
            lsh_digest = sha256_hex(experiment.run(sibling).to_json())
            assert exact_digest == lsh_digest, (
                f"{experiment_id} digest diverged under mode=lsh "
                f"(profile {profile})"
            )

    def test_figure_digests_identical_paper_scale(self, dataset):
        from repro.experiments.base import get_experiment

        load_all_experiments()
        sibling = lsh_sibling(dataset)
        for experiment_id in DISTANCE_FIGURES:
            experiment = get_experiment(experiment_id)
            assert sha256_hex(experiment.run(dataset).to_json()) == (
                sha256_hex(experiment.run(sibling).to_json())
            ), f"{experiment_id} digest diverged under mode=lsh"

    def test_paper_scale_matrix_equals_clustering_matrix(self, dataset):
        tokens = dataset.clustering().tokens
        for mode in ("exact", "lsh"):
            assert np.array_equal(
                distance_matrix(tokens, mode=mode), dataset.clustering().matrix
            )

    def test_lsh_clustering_reports_bypass_telemetry(self, dataset):
        sibling = lsh_sibling(dataset)
        with telemetry.collecting() as registry:
            clustering = sibling.clustering()
        assert clustering.mode == "lsh"
        assert registry.counters["sketch.bypassed"] == 1


class TestOnlineReplay:
    def test_replay_matches_committed_golden(self, dataset):
        """The day-stream replay over the paper-scale sample diverges
        from the batch re-cluster only by the committed amount."""
        clustering = dataset.clustering()
        clusterer = OnlineClusterer()
        labels = clusterer.replay(clustering.tokens)
        agreement = pair_agreement(labels, clustering.result.labels)
        assert agreement >= ONLINE_AGREEMENT_FLOOR
        assert len(clusterer.clusters) == ONLINE_GOLDEN["clusters"]
        assert round(agreement, 4) == ONLINE_GOLDEN["agreement"]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_agreement_floor_across_profiles(self, profile_datasets, profile):
        clustering = profile_datasets[profile].clustering()
        clusterer = OnlineClusterer()
        labels = clusterer.replay(clustering.tokens)
        assert pair_agreement(
            labels, clustering.result.labels
        ) >= ONLINE_AGREEMENT_FLOOR

    def test_replay_is_deterministic(self, dataset):
        tokens = dataset.clustering().tokens
        first = OnlineClusterer().replay(tokens)
        second = OnlineClusterer().replay(tokens)
        assert first == second

    def test_exact_duplicates_join_one_cluster(self):
        clusterer = OnlineClusterer()
        stream = [["wget", "<url>", "sh"], ["uname", "-a"],
                  ["wget", "<url>", "sh"]]
        labels = clusterer.replay(stream)
        assert labels[0] == labels[2]
        assert labels[0] != labels[1]
        assert clusterer.clusters[labels[0]].size == 2

    def test_small_edit_assigns_spawn_on_distance(self):
        clusterer = OnlineClusterer(threshold=0.45)
        base = ["cd", "/tmp", "wget", "<url>", "chmod", "777", "x", "./x"]
        near = list(base)
        near[6] = "y"  # one substitution: distance 2/8 = 0.25
        far = ["uname", "-a", "nproc"]
        labels = clusterer.replay([base, near, far])
        assert labels[0] == labels[1]
        assert labels[2] != labels[0]

    def test_telemetry_accounts_for_every_observation(self, dataset):
        tokens = dataset.clustering().tokens
        with telemetry.collecting() as registry:
            OnlineClusterer().replay(tokens)
        counters = registry.counters
        assert counters["online.observed"] == len(tokens)
        assert (
            counters.get("online.exact_duplicates", 0)
            + counters.get("online.assigned", 0)
            + counters.get("online.spawned", 0)
        ) == len(tokens)

    def test_pair_agreement_properties(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert pair_agreement(labels, labels) == 1.0
        # relabeling clusters does not change agreement
        relabeled = np.array([7, 7, 3, 3, 9])
        assert pair_agreement(labels, relabeled) == 1.0
        # all-singletons vs all-together agree on nothing
        apart = np.arange(4)
        together = np.zeros(4, dtype=int)
        assert pair_agreement(apart, together) == 0.0
        with pytest.raises(ValueError):
            pair_agreement(np.arange(3), np.arange(4))
