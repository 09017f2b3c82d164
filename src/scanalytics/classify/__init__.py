"""Attack-type classification: latent scanner clusters, features, forest."""

from .evaluate import (
    ABLATION_ROWS,
    ClassMetrics,
    EvalReport,
    VoteOutcome,
    ablation,
    evaluate_predictions,
    majority_vote,
    majority_vote_class,
    majority_vote_classes,
    split_train_test,
    train_forest,
    weekly_trend,
    write_eval_csv,
)
from .factors import (
    FactorLoadings,
    ScannerClusterModel,
    build_cluster_model,
    cluster_scanners,
    fit_scanner_factors,
)
from .features import (
    ALL_GROUPS,
    BRAND_TOKENS,
    FEATURE_GROUPS,
    SUSPICIOUS_TOKENS,
    FeatureExtractionError,
    FeatureTable,
    FeatureVector,
    HostingCache,
    HostingRecord,
    WhoisCache,
    WhoisRecord,
    extract_features,
    feature_manifest,
    feature_matrix,
    lexical_features,
    vt_cluster_features,
)
from .forest import (
    DEFAULT_HYPERPARAMETERS,
    DecisionTree,
    ForestModel,
    ModelFormatError,
    load_forest,
    save_forest,
    train_forest_model,
)

__all__ = [name for name in dir() if not name.startswith("_")]
