"""Analysis pipeline: classification, clustering, storage, case studies."""

from repro.analysis.categories import SessionCategory, categorize, category_counts
from repro.analysis.classify import DEFAULT_CLASSIFIER, CommandClassifier
from repro.analysis.clusterlabel import (
    ClusterProfile,
    profile_clusters,
    sorted_distance_matrix,
)
from repro.analysis.clusterselect import (
    KSelection,
    cluster_with_selection,
    elbow_point,
    select_k,
)
from repro.analysis.distance import distance_matrix, sample_sessions, session_tokens
from repro.analysis.kmedoids import ClusteringResult, kmedoids, silhouette_score
from repro.analysis.regexrules import (
    CATEGORY_NAMES,
    RULES,
    UNKNOWN_CATEGORY,
    CategoryRule,
)
from repro.analysis.statechange import (
    ExecOutcome,
    StateClass,
    changes_state,
    exec_outcome,
    has_exec_attempt,
    state_class,
)
from repro.analysis.tokenizer import normalize_tokens, tokenize_session, tokenize_text

__all__ = [
    "SessionCategory",
    "categorize",
    "category_counts",
    "DEFAULT_CLASSIFIER",
    "CommandClassifier",
    "ClusterProfile",
    "profile_clusters",
    "sorted_distance_matrix",
    "KSelection",
    "cluster_with_selection",
    "elbow_point",
    "select_k",
    "distance_matrix",
    "sample_sessions",
    "session_tokens",
    "ClusteringResult",
    "kmedoids",
    "silhouette_score",
    "CATEGORY_NAMES",
    "RULES",
    "UNKNOWN_CATEGORY",
    "CategoryRule",
    "ExecOutcome",
    "StateClass",
    "changes_state",
    "exec_outcome",
    "has_exec_attempt",
    "state_class",
    "normalize_tokens",
    "tokenize_session",
    "tokenize_text",
]
