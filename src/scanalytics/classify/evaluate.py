"""Training, evaluation, ablation, and the majority-voting baseline.

Class encoding is fixed: 0 = malware, 1 = phishing. The baseline counts raw
per-scanner phishing vs malware votes; generic "malicious" and other labels
carry no attack-type vote. Evaluation reports accuracy plus per-class
precision, recall and false-positive rate, with ROC points derived from the
forest's vote fractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from ..artifacts import write_table
from ..feed import DetailedLabel, GroundTruthLabel, ReportTable, ScanReport, distinct
from .factors import ScannerClusterModel
from .features import ALL_GROUPS, FeatureVector, feature_manifest, feature_matrix
from .forest import CLASS_NAMES, DEFAULT_HYPERPARAMETERS, ForestModel, train_forest_model

__all__ = [
    "VoteOutcome",
    "ClassMetrics",
    "EvalReport",
    "ABLATION_ROWS",
    "majority_vote",
    "majority_vote_class",
    "majority_vote_classes",
    "evaluate_predictions",
    "split_train_test",
    "train_forest",
    "ablation",
    "weekly_trend",
    "groups_from_manifest",
    "encode_labels",
    "write_eval_csv",
    "write_trend_csv",
]

_LABEL_TO_CLASS = {GroundTruthLabel.Malware: 0, GroundTruthLabel.Phishing: 1}


class VoteOutcome(enum.Enum):
    PHISHING = "phishing"
    MALWARE = "malware"
    TIE_UNKNOWN = "tie_unknown"


def _vote_margins(table: ReportTable) -> np.ndarray:
    """Each row's phishing votes minus its malware votes, read from its
    verdict codes (only detecting verdicts carry either label)."""
    row, codes = table.flat()
    label = table.verdict_label[codes]
    vote = (label == DetailedLabel.PhishingSite).astype(np.int64) - (label == DetailedLabel.MalwareSite)
    return np.bincount(row, weights=vote, minlength=len(table.start))


def majority_vote(report: ScanReport) -> VoteOutcome:
    """Raw scanner-vote majority between phishing and malware labels.

    Equal counts, or zero attack-specific votes, give TIE_UNKNOWN.
    """
    margin = _vote_margins(ReportTable.of([report]))[0]
    if margin > 0:
        return VoteOutcome.PHISHING
    if margin < 0:
        return VoteOutcome.MALWARE
    return VoteOutcome.TIE_UNKNOWN


def majority_vote_class(report: ScanReport) -> int:
    """Binary form of the baseline: 1 (phishing) or 0 (malware); ties
    resolve to malware."""
    return 1 if majority_vote(report) is VoteOutcome.PHISHING else 0


def majority_vote_classes(table: ReportTable) -> np.ndarray:
    """`majority_vote_class` of every row of `table`."""
    return np.where(_vote_margins(table) > 0, 1, 0)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    fpr: float


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: dict[str, ClassMetrics]
    roc: dict[str, tuple[tuple[float, float, float], ...]]  # (threshold, fpr, tpr)
    n_test: int


def _class_metrics(y_true: np.ndarray, y_pred: np.ndarray, positive: int) -> ClassMetrics:
    tp = int(np.sum((y_pred == positive) & (y_true == positive)))
    fp = int(np.sum((y_pred == positive) & (y_true != positive)))
    fn = int(np.sum((y_pred != positive) & (y_true == positive)))
    tn = int(np.sum((y_pred != positive) & (y_true != positive)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return ClassMetrics(precision=precision, recall=recall, fpr=fpr)


def _roc_points(y_true: np.ndarray, scores: np.ndarray, positive: int) -> tuple[tuple[float, float, float], ...]:
    pos = y_true == positive
    n_pos = int(pos.sum())
    n_neg = len(y_true) - n_pos
    points = []
    thresholds = [1.0 + 1e-9] + sorted(set(float(s) for s in scores), reverse=True)
    for thr in thresholds:
        predicted = scores >= thr
        tpr = float(np.sum(predicted & pos)) / n_pos if n_pos else 0.0
        fpr = float(np.sum(predicted & ~pos)) / n_neg if n_neg else 0.0
        points.append((float(thr), fpr, tpr))
    return tuple(points)


def evaluate_predictions(
    y_true: np.ndarray, y_pred: np.ndarray, scores: np.ndarray | None = None
) -> EvalReport:
    """Accuracy plus per-class metrics; ROC only when scores are provided.

    `scores` is the class-1 (phishing) score; the malware ROC uses 1-score.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    accuracy = float(np.mean(y_true == y_pred)) if len(y_true) else 0.0
    per_class = {
        "malware": _class_metrics(y_true, y_pred, positive=0),
        "phishing": _class_metrics(y_true, y_pred, positive=1),
    }
    roc: dict[str, tuple[tuple[float, float, float], ...]] = {}
    if scores is not None:
        scores = np.asarray(scores, dtype=float)
        roc["phishing"] = _roc_points(y_true, scores, positive=1)
        roc["malware"] = _roc_points(1 - y_true, 1.0 - scores, positive=1)
    return EvalReport(accuracy=accuracy, per_class=per_class, roc=roc, n_test=len(y_true))


def encode_labels(labels: Iterable[GroundTruthLabel]) -> np.ndarray:
    out = []
    for label in labels:
        if label not in _LABEL_TO_CLASS:
            raise ValueError(f"classifier labels must be Phishing or Malware, got {label}")
        out.append(_LABEL_TO_CLASS[label])
    return np.asarray(out, dtype=np.int8)


def split_train_test(y: np.ndarray, split: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Seeded stratified index split; both classes must be present."""
    y = np.asarray(y)
    if not 0 < split < 1:
        raise ValueError("split must be in (0, 1)")
    classes = distinct(y)
    if len(classes) < 2:
        raise ValueError("both classes must be present")
    rng = np.random.default_rng(seed)
    train: list[np.ndarray] = []
    test: list[np.ndarray] = []
    for c in classes:
        idx = np.flatnonzero(y == c)
        idx = idx[rng.permutation(len(idx))]
        n_train = int(len(idx) * split)
        train.append(idx[:n_train])
        test.append(idx[n_train:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def train_forest(
    vectors: Sequence[FeatureVector],
    labels: Sequence[GroundTruthLabel],
    groups: Sequence[str] = ALL_GROUPS,
    split: float = 0.8,
    seed: int = 0,
    cluster_model: ScannerClusterModel | None = None,
    threads: int = 1,
    n_estimators: int = DEFAULT_HYPERPARAMETERS["n_estimators"],
) -> tuple[ForestModel, EvalReport]:
    """Stratified 80-20 split, train on the large side, evaluate on the rest."""
    y = encode_labels(labels)
    fit_args = dict(seed=seed, cluster_model=cluster_model, threads=threads, n_estimators=n_estimators)
    return _fit_and_evaluate(vectors, y, split_train_test(y, split, seed), groups, fit_args)


ABLATION_ROWS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("vt_cluster", ("vt_cluster",)),
    ("vt_cluster+lexical", ("vt_cluster", "lexical")),
    ("vt_cluster+hosting", ("vt_cluster", "hosting")),
    ("vt_cluster+whois", ("vt_cluster", "whois")),
    ("vt_cluster+lexical+hosting", ("vt_cluster", "lexical", "hosting")),
    ("all", ALL_GROUPS),
)


def ablation(
    vectors: Sequence[FeatureVector],
    labels: Sequence[GroundTruthLabel],
    seed: int = 0,
    split: float = 0.8,
    cluster_model: ScannerClusterModel | None = None,
    threads: int = 1,
    n_estimators: int = DEFAULT_HYPERPARAMETERS["n_estimators"],
) -> dict[str, EvalReport]:
    """One forest per `ABLATION_ROWS` feature-group combination over an
    identical split."""
    y = encode_labels(labels)
    split_idx = split_train_test(y, split, seed)
    fit_args = dict(seed=seed, cluster_model=cluster_model, threads=threads, n_estimators=n_estimators)
    return {name: _fit_and_evaluate(vectors, y, split_idx, groups, fit_args)[1] for name, groups in ABLATION_ROWS}


def _fit_and_evaluate(
    vectors: Sequence[FeatureVector],
    y: np.ndarray,
    split_idx: tuple[np.ndarray, np.ndarray],
    groups: Sequence[str],
    fit_args: dict,
) -> tuple[ForestModel, EvalReport]:
    """Train a forest on the `groups` columns of the train rows, with `fit_args`
    passed on to `train_forest_model`; evaluate it on the test rows."""
    train_idx, test_idx = split_idx
    X = feature_matrix(vectors, groups)
    model = train_forest_model(
        X[train_idx], y[train_idx], feature_names=feature_manifest(groups), **fit_args
    )
    scores = model.predict_proba(X[test_idx])
    y_pred = (scores > 0.5).astype(np.int8)
    return model, evaluate_predictions(y[test_idx], y_pred, scores)


def groups_from_manifest(feature_names: Sequence[str]) -> tuple[str, ...]:
    """Recover the ordered group list from a model's feature manifest."""
    groups: list[str] = []
    for name in feature_names:
        group = name.split(".", 1)[0]
        if group not in groups:
            groups.append(group)
    return tuple(groups)


def weekly_trend(
    model: ForestModel,
    items: Sequence[tuple[ScanReport, FeatureVector]],
) -> list[tuple[str, float, float]]:
    """Per-ISO-week predicted phishing/malware fractions; empty weeks omitted.
    A report's week is that of its UTC scan day."""
    if not items:
        return []
    groups = groups_from_manifest(model.feature_names)
    X = feature_matrix([vector for _, vector in items], groups)
    predictions = model.predict(X)
    days, day_of_row = np.unique(ReportTable.of([report for report, _ in items]).scan_day, return_inverse=True)
    weeks = [f"{iso[0]}-W{iso[1]:02d}" for iso in map(date.isocalendar, map(date.fromordinal, days.tolist()))]
    buckets: dict[str, list[int]] = {}
    for day, pred in zip(day_of_row.tolist(), predictions.tolist()):
        buckets.setdefault(weeks[day], []).append(pred)
    out = []
    for week in sorted(buckets):
        votes = buckets[week]
        phishing = sum(votes) / len(votes)
        out.append((week, phishing, 1.0 - phishing))
    return out


def write_eval_csv(rows: dict[str, EvalReport], path) -> None:
    """Table layout: one line per (model row, class) with Acc/Prec/Rec/FPR."""
    lines = (
        (name, class_name, report.accuracy, metrics.precision, metrics.recall, metrics.fpr)
        for name, report in rows.items()
        for class_name, metrics in ((c, report.per_class[c]) for c in CLASS_NAMES)
    )
    write_table(path, ["model", "class", "accuracy", "precision", "recall", "fpr"], lines)


def write_trend_csv(trend: list[tuple[str, float, float]], path) -> None:
    write_table(path, ["week", "phishing_fraction", "malware_fraction"], trend)
