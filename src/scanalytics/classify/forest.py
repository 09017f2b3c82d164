"""Bagged decision forest for binary attack-type classification.

Trees use axis-aligned splits chosen by Gini impurity over candidate
thresholds at midpoints of adjacent distinct feature values. The search is
exact and sorts nothing per node: each column's distinct values are ranked
once per forest (`_BinnedMatrix`), and a node reads its row and positive
counts per value from two `np.bincount` calls over those ranks. Prefix sums
over the values present in the node score every boundary with the float
expression a sort of the node's rows would use, so each tree is the one that
sort would grow, bit for bit. This is the histogram search of LightGBM (Ke et
al. 2017) with one bin per distinct value instead of approximate bins.

Tree t draws its bootstrap sample and split-feature subsets from a generator
seeded with (seed + t), so training is reproducible at any parallelism level.
Prediction is the majority over tree votes; the score is the vote fraction
for class 1.

Models persist to a versioned JSON file carrying hyperparameters, the
feature-name manifest, the scanner cluster model, and every tree; loading
with a mismatched feature manifest is a fatal error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .factors import ScannerClusterModel

__all__ = [
    "DecisionTree",
    "ForestModel",
    "ModelFormatError",
    "train_forest_model",
    "save_forest",
    "load_forest",
    "DEFAULT_HYPERPARAMETERS",
    "CLASS_NAMES",
]

DEFAULT_HYPERPARAMETERS = {"n_estimators": 200, "max_depth": 250, "max_features": 55}

CLASS_NAMES = ("malware", "phishing")  # class 0, class 1

MODEL_FORMAT = "scanalytics-forest"
MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is unreadable or does not match the expected manifest."""


@dataclass(frozen=True)
class DecisionTree:
    feature: np.ndarray  # int32; -1 marks a leaf
    threshold: np.ndarray  # float64; split sends x <= threshold left
    left: np.ndarray  # int32 child ids
    right: np.ndarray
    value: np.ndarray  # int8 majority class per node

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(len(X), dtype=np.int32)
        pending = np.flatnonzero(self.feature[node] >= 0)
        while pending.size:
            f = self.feature[node[pending]]
            go_left = X[pending, f] <= self.threshold[node[pending]]
            node[pending] = np.where(
                go_left, self.left[node[pending]], self.right[node[pending]]
            )
            pending = pending[self.feature[node[pending]] >= 0]
        return self.value[node]


def _gini(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


@dataclass(frozen=True)
class _BinnedMatrix:
    """A training matrix with every cell's exact per-value bin.

    Column f's distinct values, ascending as `np.unique` orders them, take
    the global bin ids offset[f], offset[f] + 1, ...; `codes[i, f]` is the
    bin of `X[i, f]`, `values[b]` its value and `bin_feature[b]` its column.
    `np.unique` puts -0.0 and 0.0 in one bin, and every NaN in one bin
    after the column's numbers.
    """

    X: np.ndarray  # float64 (rows, features)
    codes: np.ndarray  # intp (rows, features)
    values: np.ndarray  # float64 per bin
    bin_feature: np.ndarray  # intp per bin

    @classmethod
    def encode(cls, X: np.ndarray) -> "_BinnedMatrix":
        codes = np.empty(X.shape, dtype=np.intp)
        columns = []
        offset = 0
        for f in range(X.shape[1]):
            distinct, rank = np.unique(X[:, f], return_inverse=True)
            codes[:, f] = rank + offset
            offset += len(distinct)
            columns.append(distinct)
        bin_feature = np.repeat(np.arange(X.shape[1]), [len(column) for column in columns])
        return cls(X, codes, np.concatenate([np.empty(0), *columns]), bin_feature)

    def take(self, rows: np.ndarray) -> "_BinnedMatrix":
        return _BinnedMatrix(self.X[rows], self.codes[rows], self.values, self.bin_feature)


def _build_tree(
    data: _BinnedMatrix,
    y: np.ndarray,
    max_depth: int,
    max_features: int,
    rng: np.random.Generator,
) -> DecisionTree:
    """Grow one tree depth first. At each node every boundary between two
    adjacent values of a candidate column is a split; the lowest weighted
    Gini wins, ties going to the smaller left side, then the smaller column.

    Counts come from per-value bins, not from sorting the node: the bins
    present in the node, in bin order, are its sorted distinct values, and
    prefix sums over them give the left side of every boundary."""
    X, codes, values, bin_feature = data.X, data.codes, data.values, data.bin_feature
    n_features = X.shape[1]
    n_bins = len(values)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[int] = []

    def new_node(majority: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(majority)
        return len(feature) - 1

    def majority_class(labels: np.ndarray) -> int:
        ones = int(labels.sum())
        zeros = len(labels) - ones
        return 1 if ones > zeros else 0

    root = new_node(majority_class(y))
    stack: list[tuple[np.ndarray, int, int]] = [(np.arange(len(y)), 0, root)]
    while stack:
        idx, depth, node_id = stack.pop()
        labels = y[idx]
        n = len(idx)
        ones = int(labels.sum())
        if n < 2 or ones == 0 or ones == n or depth >= max_depth:
            continue
        node_gini = _gini(np.array([n - ones, ones]), n)

        # The subset is drawn only when it is a strict subset, so the draws
        # follow the depth-first order of the nodes that reach this line.
        if max_features < n_features:
            candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
            node_codes = codes[np.ix_(idx, candidates)]
        else:
            node_codes = codes[idx]
        counts = np.bincount(node_codes.ravel(), minlength=n_bins)
        positives = np.bincount(node_codes[labels == 1].ravel(), minlength=n_bins)
        present = np.flatnonzero(counts)
        cum_n = np.cumsum(counts[present])
        cum_pos = np.cumsum(positives[present])
        # A boundary joins two adjacent present bins of one column whose
        # values strictly increase: NaN, compared to anything, is never
        # greater, so as with sorted rows no split separates it.
        lo, hi = present[:-1], present[1:]
        boundary = np.flatnonzero(
            (bin_feature[lo] == bin_feature[hi]) & (values[hi] > values[lo])
        )
        if not boundary.size:
            continue
        # Every candidate column holds all n rows of the node, so the j-th
        # one's prefix sums start after j * n rows and j * ones positives,
        # and a boundary's left side (1 to n - 1 rows) gives j = cum_n // n.
        cum_n = cum_n[boundary]
        column_start = cum_n // n
        left_pos = cum_pos[boundary] - column_start * ones

        # Term for term the expression over a node's sorted rows, with a
        # float left_n and an int left_pos, so the floats and ties match it.
        left_n = (cum_n - column_start * n).astype(float)
        right_n = n - left_n
        right_pos = ones - left_pos
        left_p = left_pos / left_n
        right_p = right_pos / right_n
        gini_left = 1.0 - left_p**2 - (1.0 - left_p) ** 2
        gini_right = 1.0 - right_p**2 - (1.0 - right_p) ** 2
        weighted = (left_n * gini_left + right_n * gini_right) / n

        lo, hi = lo[boundary], hi[boundary]
        # Lowest Gini, then fewest rows on the left, then the lowest column:
        # the order of a row-major argmin over a (left rows, column) grid.
        best = int(np.lexsort((bin_feature[lo], left_n, weighted))[0])
        if weighted[best] >= node_gini - 1e-12:
            continue
        # The threshold is the midpoint of the two adjacent present values,
        # in Python floats: between -inf and inf it is NaN without a warning.
        feat = int(bin_feature[lo[best]])
        x_lo = float(values[lo[best]])
        x_hi = float(values[hi[best]])
        thr = (x_lo + x_hi) / 2.0
        column = X[idx, feat]
        if not thr < x_hi:  # midpoint rounded up, or NaN between -inf and inf
            # The node's last row equal to x_lo, as a stable sort places
            # it: its sign of zero may differ from the bin's value.
            thr = column[column == x_lo][-1]

        # Partition on the raw values, so NaN rows go right.
        go_left = column <= thr
        left_idx = idx[go_left]
        right_idx = idx[~go_left]

        feature[node_id] = feat
        threshold[node_id] = float(thr)
        left_id = new_node(majority_class(y[left_idx]))
        right_id = new_node(majority_class(y[right_idx]))
        left[node_id] = left_id
        right[node_id] = right_id
        stack.append((left_idx, depth + 1, left_id))
        stack.append((right_idx, depth + 1, right_id))

    return DecisionTree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=np.int8),
    )


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[DecisionTree, ...]
    n_estimators: int
    max_depth: int
    max_features: int
    seed: int
    feature_names: tuple[str, ...]
    classes: tuple[str, str]
    cluster_model: ScannerClusterModel | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Fraction of trees voting class 1, in multiples of 1/n_estimators."""
        X = np.asarray(X, dtype=float)
        if X.shape[1] != len(self.feature_names):
            raise ModelFormatError(
                f"feature count mismatch: model has {len(self.feature_names)}, input has {X.shape[1]}"
            )
        votes = np.zeros(len(X))
        for tree in self.trees:
            votes += tree.predict(X)
        return votes / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote; exact ties fall to class 0."""
        return (self.predict_proba(X) > 0.5).astype(np.int8)


def train_forest_model(
    X: np.ndarray,
    y: np.ndarray,
    feature_names: Sequence[str],
    seed: int,
    n_estimators: int = DEFAULT_HYPERPARAMETERS["n_estimators"],
    max_depth: int = DEFAULT_HYPERPARAMETERS["max_depth"],
    max_features: int = DEFAULT_HYPERPARAMETERS["max_features"],
    cluster_model: ScannerClusterModel | None = None,
    threads: int = 1,
) -> ForestModel:
    """Train bagged Gini trees. Output is identical for any `threads` value."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D with one label per row")
    if not np.all((y == 0) | (y == 1)):  # before the cast, which wraps 256 to 0
        raise ValueError("labels must be 0/1")
    y = y.astype(np.int8)
    if len(feature_names) != X.shape[1]:
        raise ValueError("feature_names length must match X columns")
    if n_estimators < 1 or max_features < 1:
        raise ValueError("n_estimators and max_features must be >= 1")
    effective_features = min(max_features, X.shape[1])
    data = _BinnedMatrix.encode(X)

    def train_one(t: int) -> DecisionTree:
        rng = np.random.default_rng(seed + t)
        boot = rng.integers(0, len(y), len(y))
        return _build_tree(data.take(boot), y[boot], max_depth, effective_features, rng)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # it loads `logging`; only this branch needs it

        with ThreadPoolExecutor(max_workers=threads) as pool:
            trees = tuple(pool.map(train_one, range(n_estimators)))
    else:
        trees = tuple(train_one(t) for t in range(n_estimators))

    return ForestModel(
        trees=trees,
        n_estimators=n_estimators,
        max_depth=max_depth,
        max_features=max_features,
        seed=seed,
        feature_names=tuple(feature_names),
        classes=CLASS_NAMES,
        cluster_model=cluster_model,
    )


def save_forest(model: ForestModel, path) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "hyperparameters": {
            "n_estimators": model.n_estimators,
            "max_depth": model.max_depth,
            "max_features": model.max_features,
        },
        "seed": model.seed,
        "classes": list(model.classes),
        "feature_names": list(model.feature_names),
        "cluster_model": model.cluster_model.to_dict() if model.cluster_model else None,
        "trees": [
            {
                "feature": tree.feature.tolist(),
                "threshold": tree.threshold.tolist(),
                "left": tree.left.tolist(),
                "right": tree.right.tolist(),
                "value": tree.value.tolist(),
            }
            for tree in model.trees
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_forest(path, expect_features: Sequence[str] | None = None) -> ForestModel:
    """Load a saved model. A file that is not a model of this format, a
    missing or malformed field, or a feature-manifest mismatch raises
    ModelFormatError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format") != MODEL_FORMAT or payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise ModelFormatError(f"unrecognized model file format in {path}")
        feature_names = tuple(payload["feature_names"])
        if not all(isinstance(name, str) for name in feature_names):
            raise ValueError("feature names must be strings")
        trees = tuple(_tree_from_dict(raw, len(feature_names)) for raw in payload["trees"])
        if not trees:
            raise ValueError("no trees")
        hp = payload["hyperparameters"]
        cluster_raw = payload.get("cluster_model")
        model = ForestModel(
            trees=trees,
            n_estimators=int(hp["n_estimators"]),
            max_depth=int(hp["max_depth"]),
            max_features=int(hp["max_features"]),
            seed=int(payload["seed"]),
            feature_names=feature_names,
            classes=tuple(payload["classes"]),
            cluster_model=ScannerClusterModel.from_dict(cluster_raw) if cluster_raw else None,
        )
    except ModelFormatError:
        raise
    except KeyError as exc:
        raise ModelFormatError(f"model file {path} lacks field {exc}") from None
    except (AttributeError, ArithmeticError, RecursionError, TypeError, ValueError) as exc:  # also not JSON (or too deeply nested), or not UTF-8
        raise ModelFormatError(f"malformed model file {path}: {exc}") from None
    if expect_features is not None and tuple(expect_features) != feature_names:
        raise ModelFormatError(
            "feature manifest mismatch: model was trained with "
            f"{len(feature_names)} features, expected {len(tuple(expect_features))}"
        )
    return model


def _tree_from_dict(raw: dict, n_features: int) -> DecisionTree:
    """A tree `DecisionTree.predict` can walk: equal-length arrays, known
    split features, and children numbered after their node (as `_build_tree`
    numbers them), so every walk ends at a leaf."""
    tree = DecisionTree(
        feature=np.asarray(raw["feature"], dtype=np.int32),
        threshold=np.asarray(raw["threshold"], dtype=np.float64),
        left=np.asarray(raw["left"], dtype=np.int32),
        right=np.asarray(raw["right"], dtype=np.int32),
        value=np.asarray(raw["value"], dtype=np.int8),
    )
    n = len(tree.feature)
    if n == 0 or {array.shape for array in vars(tree).values()} != {(n,)}:
        raise ValueError("tree arrays must be non-empty and of equal length")
    split = np.flatnonzero(tree.feature >= 0)
    children = np.stack([tree.left[split], tree.right[split]])
    if np.any(tree.feature >= n_features) or np.any(children <= split) or np.any(children >= n):
        raise ValueError("tree splits on an unlisted feature or numbers a child out of order")
    return tree
