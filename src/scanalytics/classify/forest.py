"""Bagged decision forest for binary attack-type classification.

Trees use axis-aligned splits chosen by Gini impurity over candidate
thresholds at midpoints of adjacent distinct feature values. The search is
exact and sorts nothing per node: each column's distinct values are ranked
once per forest (`_BinnedMatrix`), and a node reads its rows per value and
class from one `np.bincount` over those ranks. Prefix sums
over the values present in the node score every boundary with the float
expression a sort of the node's rows would use, so each tree is the one that
sort would grow, bit for bit. This is the histogram search of LightGBM (Ke et
al. 2017) with one bin per distinct value instead of approximate bins, and
with its subtraction: after a split only the smaller child is counted, and
the larger child's counts are the parent's minus the smaller child's.

Tree t draws its bootstrap sample and split-feature subsets from a generator
seeded with (seed + t), so training is reproducible at any parallelism level.
Prediction is the majority over tree votes; the score is the vote fraction
for class 1. Prediction walks the trees in blocks: a block's trees share one
set of node arrays, and all of its (tree, row) pairs descend together. A
block holds as many trees as fit in `_WALK_PAIRS` pairs, so the walk's
memory does not grow with the forest.

Models persist to a versioned JSON file carrying hyperparameters, the
feature-name manifest, the scanner cluster model, and every tree; loading
with a mismatched feature manifest is a fatal error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

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
        return next(_walk((self,), X))[0]


# A walk advances the (tree, row) pairs of as many trees at once as fit in
# this many pairs, one tree at least, so its memory does not grow with the
# number of trees.
_WALK_PAIRS = 1 << 14


def _walk(trees: Sequence[DecisionTree], X: np.ndarray) -> Iterator[np.ndarray]:
    """Each tree's leaf value for every row of `X` (rows, features), as
    (trees, rows) int8 blocks in tree order. A block's trees are stacked
    into one set of node arrays, their node ids offset per tree, and every
    (tree, row) pair of the block descends one level per step."""
    n_rows, n_columns = X.shape
    cells = np.ascontiguousarray(X, dtype=float).ravel()
    row_start = np.arange(n_rows, dtype=np.intp) * n_columns
    per_block = max(1, _WALK_PAIRS // max(n_rows, 1))
    for first in range(0, len(trees), per_block):
        block = trees[first:first + per_block]
        sizes = [len(tree.feature) for tree in block]
        offset = np.cumsum([0, *sizes[:-1]]).astype(np.int32)
        shift = np.repeat(offset, sizes)
        feature = np.concatenate([tree.feature for tree in block])
        threshold = np.concatenate([tree.threshold for tree in block])
        left = np.concatenate([tree.left for tree in block]) + shift
        right = np.concatenate([tree.right for tree in block]) + shift
        node = np.repeat(offset, n_rows)  # pair p is tree p // n_rows, row p % n_rows
        cell = np.tile(row_start, len(block))
        pending = np.flatnonzero(feature[node] >= 0)
        while pending.size:
            at = node[pending]
            go_left = cells[cell[pending] + feature[at]] <= threshold[at]
            at = np.where(go_left, left[at], right[at])
            node[pending] = at
            pending = pending[feature[at] >= 0]
        yield np.concatenate([tree.value for tree in block])[node].reshape(len(block), n_rows)


@dataclass(frozen=True)
class _BinnedMatrix:
    """A training matrix with every cell's exact per-value bin.

    Column f's distinct values, ascending as `np.unique` orders them, take
    the global bin ids offset[f], offset[f] + 1, ...; `codes[i, f]` is the
    bin of `X[i, f]`, `values[b]` its value and `bin_feature[b]` its column.
    `np.unique` puts -0.0 and 0.0 in one bin, and every NaN in one bin
    after the column's numbers. A sample of the rows (a bootstrap repeats
    some) is the row ids `sample` into the same cells, not a copy of them.
    """

    X: np.ndarray  # float64 (rows, features)
    codes: np.ndarray  # intp (rows, features)
    values: np.ndarray  # float64 per bin
    bin_feature: np.ndarray  # intp per bin
    sample: np.ndarray | None = None  # the rows, in order; None for every row

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
        """The matrix of this one's rows `rows`, in that order."""
        return replace(self, sample=rows if self.sample is None else self.sample[rows])


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
    prefix sums over them give the left side of every boundary. A node's
    per-bin counts cover every column. After a split only the child with
    fewer rows is counted; the other child's counts are the parent's minus
    its sibling's."""
    X, values, bin_feature = data.X, data.values, data.bin_feature
    sample = np.arange(len(X)) if data.sample is None else data.sample
    n_features = X.shape[1]
    n_bins = len(values)
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[int] = []

    def new_node(n: int, ones: int) -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(1 if ones > n - ones else 0)
        return len(feature) - 1

    def splits(n: int, ones: int, depth: int) -> bool:
        return n >= 2 and 0 < ones < n and depth < max_depth

    # Each cell's slot in a node's histogram: its bin in a class-0 row, and
    # n_bins plus its bin in a class-1 row.
    slots = data.codes[sample]
    slots += n_bins * (y == 1)[:, None]
    # A bin's group is its column, except that each NaN bin is a group alone.
    group = np.where(np.isnan(values), -1 - np.arange(n_bins), bin_feature)

    def histogram(node_slots: np.ndarray) -> np.ndarray:
        """Rows per bin of class 0, then of class 1, over every column."""
        return np.bincount(node_slots.ravel(), minlength=2 * n_bins)

    n, ones = len(y), int(y.sum())
    root = new_node(n, ones)
    # A node is stacked only if it may split: (rows, positives, depth, id, histogram).
    stack: list[tuple[np.ndarray, int, int, int, np.ndarray]] = []
    if splits(n, ones, 0):
        stack.append((np.arange(n), ones, 0, root, histogram(slots)))  # every row, without a copy
    while stack:
        idx, ones, depth, node_id, by_class = stack.pop()
        positives = by_class[n_bins:]
        counts = by_class[:n_bins] + positives
        n = len(idx)
        # The Gini of the node's two class counts, in the float operations
        # of `1 - sum(p * p)` over the array [n - ones, ones] / n.
        p0, p1 = (n - ones) / n, ones / n
        node_gini = 1.0 - (p0 * p0 + p1 * p1)

        # The subset is drawn only when it is a strict subset, so the draws
        # follow the depth-first order of the nodes that reach this line.
        # Masking the other columns' bins leaves the bins a count over the
        # drawn columns alone would find.
        live = counts
        if max_features < n_features:
            keep = np.zeros(n_features, bool)
            keep[rng.choice(n_features, size=max_features, replace=False)] = True
            live = counts * keep[bin_feature]
        present = live.nonzero()[0]
        cum_n = counts[present].cumsum()
        cum_pos = positives[present].cumsum()
        # A boundary joins two adjacent present bins of one group, so two
        # adjacent numbers of one column: NaN, compared to anything, is never
        # greater, so as with sorted rows no split separates it.
        column_of = group[present]
        boundary = (column_of[:-1] == column_of[1:]).nonzero()[0]
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

        # Lowest Gini, then fewest rows on the left, then the lowest column:
        # the order of a row-major argmin over a (left rows, column) grid.
        lowest = weighted.min()
        if lowest >= node_gini - 1e-12:
            continue
        tied = (weighted == lowest).nonzero()[0]
        if len(tied) > 1:
            tied = tied[np.lexsort((column_of[boundary[tied]], left_n[tied]))]
        best = tied[0]
        # The threshold is the midpoint of the two adjacent present values,
        # in Python floats: between -inf and inf it is NaN without a warning.
        lo, hi = present[boundary[best]], present[boundary[best] + 1]
        feat = int(bin_feature[lo])
        x_lo = float(values[lo])
        x_hi = float(values[hi])
        thr = (x_lo + x_hi) / 2.0
        column = X[sample[idx], feat]
        if not thr < x_hi:  # midpoint rounded up, or NaN between -inf and inf
            # The node's last row equal to x_lo, as a stable sort places
            # it: its sign of zero may differ from the bin's value.
            thr = column[column == x_lo][-1]

        # Partition on the raw values, so NaN rows go right.
        go_left = column <= thr
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        left_ones = int(y[left_idx].sum())
        right_ones = ones - left_ones

        feature[node_id] = feat
        threshold[node_id] = float(thr)
        left_id = new_node(len(left_idx), left_ones)
        right_id = new_node(len(right_idx), right_ones)
        left[node_id] = left_id
        right[node_id] = right_id
        grow_left = splits(len(left_idx), left_ones, depth + 1)
        grow_right = splits(len(right_idx), right_ones, depth + 1)
        if not (grow_left or grow_right):
            continue
        # Count the smaller child; the larger one's counts are the rest.
        small_left = len(left_idx) <= len(right_idx)
        small = histogram(slots[left_idx if small_left else right_idx])
        grow_large = grow_right if small_left else grow_left
        large = by_class - small if grow_large else None
        left_counts, right_counts = (small, large) if small_left else (large, small)
        if grow_left:
            stack.append((left_idx, left_ones, depth + 1, left_id, left_counts))
        if grow_right:
            stack.append((right_idx, right_ones, depth + 1, right_id, right_counts))

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
        for block in _walk(self.trees, X):
            for tree_votes in block:  # in tree order, as one tree at a time adds them
                votes += tree_votes
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
    text = json.dumps(payload, sort_keys=True)  # `json.dump` would stream through the pure-Python encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
