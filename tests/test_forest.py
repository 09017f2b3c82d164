"""Decision forest: training, prediction, determinism, persistence."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanalytics.classify.forest import (
    DecisionTree,
    ModelFormatError,
    _BinnedMatrix,
    _build_tree,
    load_forest,
    save_forest,
    train_forest_model,
)


def _separable(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 2] > 0).astype(np.int8)
    return X, y


class TestTraining:
    def test_separable_data_perfect_accuracy(self):
        X, y = _separable()
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=1, n_estimators=25)
        assert np.array_equal(model.predict(X), y)

    def test_deterministic_across_runs(self):
        X, y = _separable(seed=3)
        names = [f"f{i}" for i in range(5)]
        a = train_forest_model(X, y, names, seed=7, n_estimators=20)
        b = train_forest_model(X, y, names, seed=7, n_estimators=20)
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_thread_count_does_not_change_output(self):
        X, y = _separable(seed=4)
        names = [f"f{i}" for i in range(5)]
        seq = train_forest_model(X, y, names, seed=7, n_estimators=16, threads=1)
        par = train_forest_model(X, y, names, seed=7, n_estimators=16, threads=4)
        assert np.array_equal(seq.predict_proba(X), par.predict_proba(X))
        for ta, tb in zip(seq.trees, par.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)

    def test_probability_granularity(self):
        X, y = _separable(seed=5)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=2, n_estimators=8)
        proba = model.predict_proba(X)
        assert np.all((proba * 8) % 1 == 0)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_max_depth_one_gives_stumps(self):
        X, y = _separable(seed=6)
        model = train_forest_model(
            X, y, [f"f{i}" for i in range(5)], seed=2, n_estimators=4, max_depth=1
        )
        for tree in model.trees:
            assert len(tree.feature) <= 3

    def test_single_class_rejected(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=np.int8)
        model = train_forest_model(X, y, ["a", "b"], seed=0, n_estimators=2)
        assert np.array_equal(model.predict(X), y)  # constant data gives leaf-only trees

    def test_feature_mismatch_on_predict(self):
        X, y = _separable(seed=8)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=0, n_estimators=2)
        with pytest.raises(ModelFormatError, match="feature count"):
            model.predict(np.zeros((2, 3)))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        X, y = _separable(seed=9)
        names = [f"f{i}" for i in range(5)]
        model = train_forest_model(X, y, names, seed=3, n_estimators=10)
        path = tmp_path / "model.json"
        save_forest(model, path)
        loaded = load_forest(path, expect_features=names)
        assert np.array_equal(loaded.predict_proba(X), model.predict_proba(X))
        assert loaded.feature_names == model.feature_names
        assert loaded.seed == model.seed

    def test_manifest_mismatch_fatal(self, tmp_path):
        X, y = _separable(seed=10)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=3, n_estimators=4)
        path = tmp_path / "model.json"
        save_forest(model, path)
        with pytest.raises(ModelFormatError, match="manifest mismatch"):
            load_forest(path, expect_features=["other"] * 5)

    def test_unrecognized_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ModelFormatError, match="unrecognized"):
            load_forest(path)


class TestTreeOrderInvariance:
    def test_prediction_invariant_to_tree_order(self):
        from dataclasses import replace

        X, y = _separable(seed=11)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=4, n_estimators=9)
        reordered = replace(model, trees=tuple(reversed(model.trees)))
        assert np.array_equal(reordered.predict_proba(X), model.predict_proba(X))
        assert np.array_equal(reordered.predict(X), model.predict(X))


class TestLoadRejectsUnwalkableTrees:
    """A saved tree whose walk could leave the arrays or never reach a leaf
    is rejected on load, before `predict` runs it."""

    @pytest.mark.parametrize(
        "child_ids",
        [lambda n: [0] * n, lambda n: list(range(n)), lambda n: [n] * n, lambda n: [-1] * n],
        ids=["root", "self", "past-end", "negative"],
    )
    def test_bad_child_ids(self, tmp_path, child_ids):
        import json

        X, y = _separable(seed=12)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=5, n_estimators=3)
        path = tmp_path / "model.json"
        save_forest(model, path)
        payload = json.loads(path.read_text())
        tree = payload["trees"][0]
        tree["left"] = child_ids(len(tree["left"]))
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match=str(path)):
            load_forest(path)


class TestLabelValidation:
    """Labels are checked before the int8 cast, which would wrap 256 to 0
    and -255 to 1 and truncate 0.5 to 0."""

    @pytest.mark.parametrize("bad", [256, 0.5, -255])
    def test_non_binary_label_rejected(self, bad):
        X, y = _separable(n=20, seed=13)
        labels = y.tolist()
        labels[3] = bad
        with pytest.raises(ValueError, match="labels must be 0/1"):
            train_forest_model(X, np.array(labels), [f"f{i}" for i in range(5)], seed=0, n_estimators=2)

    def test_binary_labels_of_any_dtype_accepted(self):
        X, y = _separable(n=20, seed=13)
        names = [f"f{i}" for i in range(5)]
        reference = train_forest_model(X, y, names, seed=0, n_estimators=2)
        for labels in (y.astype(float), y.astype(bool), y.astype(np.int64)):
            model = train_forest_model(X, labels, names, seed=0, n_estimators=2)
            assert np.array_equal(model.predict_proba(X), reference.predict_proba(X))


class TestHyperparameterValidation:
    """A forest without trees has no vote, and a node offered no feature
    cannot split; both are rejected instead of trained."""

    @pytest.mark.parametrize("hyper", [{"n_estimators": 0}, {"n_estimators": -2}, {"max_features": 0}])
    def test_empty_forest_or_feature_draw_rejected(self, hyper):
        X, y = _separable(n=20, seed=13)
        with pytest.raises(ValueError, match="must be >= 1"):
            train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=0, **dict({"n_estimators": 2}, **hyper))


def _reference_gini(counts, total):
    if total == 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.sum(p * p))


def _reference_build_tree(X, y, max_depth, max_features, rng):
    """The sort-every-node `_build_tree` the rank-binned search replaced."""
    n_features = X.shape[1]
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node(majority):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(majority)
        return len(feature) - 1

    def majority_class(labels):
        ones = int(labels.sum())
        zeros = len(labels) - ones
        return 1 if ones > zeros else 0

    root = new_node(majority_class(y))
    stack = [(np.arange(len(y)), 0, root)]
    while stack:
        idx, depth, node_id = stack.pop()
        labels = y[idx]
        n = len(idx)
        ones = int(labels.sum())
        if n < 2 or ones == 0 or ones == n or depth >= max_depth:
            continue
        node_gini = _reference_gini(np.array([n - ones, ones]), n)

        if max_features < n_features:
            candidates = np.sort(rng.choice(n_features, size=max_features, replace=False))
        else:
            candidates = np.arange(n_features)
        Xc = X[np.ix_(idx, candidates)]

        order = np.argsort(Xc, axis=0, kind="stable")
        x_sorted = np.take_along_axis(Xc, order, axis=0)
        y_sorted = labels[order]
        pos_prefix = np.cumsum(y_sorted, axis=0)
        total_pos = pos_prefix[-1]

        left_n = np.arange(1, n, dtype=float)[:, None]
        right_n = n - left_n
        left_pos = pos_prefix[:-1]
        right_pos = total_pos[None, :] - left_pos
        left_p = left_pos / left_n
        right_p = right_pos / right_n
        gini_left = 1.0 - left_p**2 - (1.0 - left_p) ** 2
        gini_right = 1.0 - right_p**2 - (1.0 - right_p) ** 2
        weighted = (left_n * gini_left + right_n * gini_right) / n
        valid = x_sorted[1:] > x_sorted[:-1]
        weighted = np.where(valid, weighted, np.inf)

        flat = int(np.argmin(weighted))
        best = weighted.flat[flat]
        if not np.isfinite(best) or best >= node_gini - 1e-12:
            continue
        split_row, feat_col = divmod(flat, weighted.shape[1])
        x_lo = x_sorted[split_row, feat_col]
        x_hi = x_sorted[split_row + 1, feat_col]
        thr = (x_lo + x_hi) / 2.0
        if not thr < x_hi:  # rounded up, or NaN between -inf and inf
            thr = x_lo
        feat = int(candidates[feat_col])

        go_left = X[idx, feat] <= thr
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


def _assert_same_tree(X, y, max_depth, max_features, seed, data=None):
    """`data` defaults to X's own bins; a forest passes the bootstrap rows of
    the whole matrix's bins, some of which the sample lacks."""
    data = _BinnedMatrix.encode(X) if data is None else data
    expected = _reference_build_tree(X, y, max_depth, max_features, np.random.default_rng(seed))
    actual = _build_tree(data, y, max_depth, max_features, np.random.default_rng(seed))
    for name in ("feature", "threshold", "left", "right", "value"):
        assert getattr(actual, name).tobytes() == getattr(expected, name).tobytes(), name


# Every float the split search treats specially: both zeros (one bin, equal
# under `<=`), both infinities (a midpoint that rounds up to x_hi), the
# smallest subnormal, a value whose sum with its neighbour overflows, and NaN.
_SPECIAL_VALUES = (-np.inf, -2.0, -1.0, -0.0, 0.0, 5e-324, 0.5, 1.0, 3.0, 1.7e308, np.inf, np.nan)


class TestRankBinnedSplitsMatchReference:
    """`_build_tree` grows the same tree, bit for bit, as sorting every
    candidate column at every node."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_same_tree_as_sorting_every_node(self, data):
        n = data.draw(st.integers(min_value=1, max_value=60))
        n_features = data.draw(st.integers(min_value=1, max_value=6))
        if data.draw(st.booleans()):
            cell = st.integers(min_value=0, max_value=3).map(float)  # few values, many ties
        else:
            cell = st.sampled_from(_SPECIAL_VALUES)
        cells = data.draw(st.lists(cell, min_size=n * n_features, max_size=n * n_features))
        X = np.array(cells, dtype=float).reshape(n, n_features)
        for f in data.draw(st.sets(st.integers(min_value=0, max_value=n_features - 1))):
            X[:, f] = X[0, f]  # a constant column
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int8)
        max_features = data.draw(st.integers(min_value=1, max_value=n_features))
        max_depth = data.draw(st.integers(min_value=1, max_value=30))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        _assert_same_tree(X, y, max_depth, max_features, seed)

    @pytest.mark.parametrize(
        "column",
        [[0.0, -0.0, np.inf, np.inf], [-0.0, 0.0, np.inf, np.inf], [-0.0, np.inf, 0.0, np.inf]],
        ids=["last-zero-negative", "last-zero-positive", "zeros-interleaved"],
    )
    def test_rounded_up_threshold_keeps_the_rows_sign_of_zero(self, column):
        # The midpoint of a zero and +inf rounds up to inf, so the threshold
        # falls back to the node's last zero in sorted order, with its sign.
        X = np.array(column)[:, None]
        y = np.isinf(X[:, 0]).astype(np.int8)
        _assert_same_tree(X, y, max_depth=5, max_features=1, seed=0)

    def test_minus_and_plus_infinity_split_once(self):
        # Their midpoint is NaN, which no row is <=; the threshold falls back
        # to -inf as a rounded-up midpoint does, so the split is not repeated
        # down to max_depth.
        X = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        with np.errstate(invalid="ignore"):
            tree = _build_tree(_BinnedMatrix.encode(X), y, 30, 1, np.random.default_rng(0))
            _assert_same_tree(X, y, max_depth=30, max_features=1, seed=0)
        assert len(tree.feature) == 3
        assert not np.isnan(tree.threshold).any()
        assert tree.predict(X).tolist() == [0, 0, 1, 1]

    def test_bench_sized_forest_matches_tree_by_tree(self):
        rng = np.random.default_rng(21)
        X = rng.integers(0, 12, size=(400, 8)).astype(float)
        X[:, 3] = rng.normal(size=400).round(2)
        X[:, 5] = 1.0
        y = ((X[:, 0] + X[:, 3] + rng.normal(size=400)) > 6).astype(np.int8)
        data = _BinnedMatrix.encode(X)
        for t in range(6):
            boot = np.random.default_rng(100 + t).integers(0, len(y), len(y))
            max_features = 5 if t % 2 else 8
            _assert_same_tree(X[boot], y[boot], 250, max_features, seed=t, data=data.take(boot))

    def test_saved_model_bytes_equal_across_thread_counts(self, tmp_path):
        rng = np.random.default_rng(22)
        X = rng.integers(0, 4, size=(300, 6)).astype(float)
        X[::7, 2] = np.nan
        y = ((X[:, 0] + X[:, 1] + rng.integers(0, 3, 300)) > 4).astype(np.int8)
        names = [f"f{i}" for i in range(6)]
        paths = []
        for threads in (1, 4):
            model = train_forest_model(X, y, names, seed=9, n_estimators=12, max_features=4, threads=threads)
            paths.append(tmp_path / f"model-{threads}.json")
            save_forest(model, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestInfiniteNeighboursWarnNothing:
    """The midpoint of adjacent -inf and inf values is NaN; the split falls
    back to -inf without a RuntimeWarning, in one tree and in a forest."""

    def test_split_between_infinities_raises_no_warning(self):
        X = np.array([[-np.inf], [-np.inf], [np.inf], [np.inf]])
        y = np.array([0, 0, 1, 1], dtype=np.int8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tree = _build_tree(_BinnedMatrix.encode(X), y, 30, 1, np.random.default_rng(0))
            model = train_forest_model(X, y, ["f0"], seed=0, n_estimators=4)
            votes = model.predict_proba(X)
        assert tree.threshold.tolist() == [-np.inf, 0.0, 0.0]
        assert tree.predict(X).tolist() == [0, 0, 1, 1]
        assert not any(np.isnan(t.threshold).any() for t in model.trees)
        assert votes.shape[0] == 4


class TestHistogramSubtraction:
    """Each child's bin counts come from its parent's minus its sibling's;
    at a few hundred rows and full depth the trees still equal sorting every
    node, whichever child is the smaller and when a child is pure."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_same_tree_as_sorting_every_node(self, data):
        n = data.draw(st.integers(min_value=300, max_value=600))
        n_features = data.draw(st.integers(min_value=2, max_value=6))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        X = rng.integers(0, data.draw(st.integers(min_value=2, max_value=40)), size=(n, n_features)).astype(float)
        X[rng.random((n, n_features)) < 0.05] = np.nan
        noise = data.draw(st.sampled_from([0.0, 0.1, 0.4]))
        y = ((X[:, 0] > np.nanmedian(X[:, 0])) ^ (rng.random(n) < noise)).astype(np.int8)
        max_features = data.draw(st.integers(min_value=1, max_value=n_features))
        _assert_same_tree(X, y, 250, max_features, seed)

    def test_equal_children_and_pure_children(self):
        # Column 0 halves the rows exactly, so the root's children are equal
        # in size; column 1 then splits each half into a pure side and a
        # side that column 2 separates only after several more splits.
        rng = np.random.default_rng(3)
        n = 400
        X = np.column_stack([np.repeat([0.0, 1.0], n // 2), rng.integers(0, 4, n), rng.normal(size=n).round(1)])
        y = (X[:, 0].astype(bool) ^ ((X[:, 1] > 1) & (X[:, 2] > 0))).astype(np.int8)
        tree = _build_tree(_BinnedMatrix.encode(X), y, 250, 3, np.random.default_rng(0))
        assert tree.feature[0] == 0
        assert np.array_equal(tree.predict(X), y)
        for max_features in (3, 2, 1):
            _assert_same_tree(X, y, 250, max_features, seed=max_features)

    def test_sample_of_a_sample(self):
        # `take` keeps row ids into the encoded cells; a second take picks
        # among the first one's rows.
        rng = np.random.default_rng(5)
        X = rng.integers(0, 8, size=(300, 4)).astype(float)
        y = ((X[:, 0] + rng.integers(0, 5, 300)) > 6).astype(np.int8)
        first, second = rng.integers(0, 300, 300), rng.integers(0, 300, 300)
        data = _BinnedMatrix.encode(X).take(first).take(second)
        _assert_same_tree(X[first][second], y[first][second], 250, 3, seed=5, data=data)


def _tree_walk(tree, X):
    """Each row's leaf value, walking the one tree over every row."""
    node = np.zeros(len(X), dtype=np.int32)
    pending = np.flatnonzero(tree.feature[node] >= 0)
    while pending.size:
        f = tree.feature[node[pending]]
        go_left = X[pending, f] <= tree.threshold[node[pending]]
        node[pending] = np.where(go_left, tree.left[node[pending]], tree.right[node[pending]])
        pending = pending[tree.feature[node[pending]] >= 0]
    return tree.value[node]


def _per_tree_votes(model, X):
    """The vote fraction of walking one tree at a time."""
    votes = np.zeros(len(X))
    for tree in model.trees:
        votes += _tree_walk(tree, X)
    return votes / len(model.trees)


class TestBlockedWalk:
    """`predict_proba` walks a block of trees at once; its votes are the
    per-tree walk's, however the (tree, row) pairs fall into blocks."""

    def test_pairs_spanning_several_blocks(self):
        from scanalytics.classify import forest

        rng = np.random.default_rng(31)
        X = rng.integers(0, 6, size=(1600, 5)).astype(float)
        X[::11, 1] = np.nan
        y = ((X[:, 0] + X[:, 2] + rng.integers(0, 4, 1600)) > 6).astype(np.int8)
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=4, n_estimators=40, max_features=3)
        queries = np.concatenate([X, rng.normal(3, 3, size=(50, 5)), [[np.nan] * 5, [np.inf, -np.inf, 0.0, -0.0, 9.0]]])
        assert len(queries) * len(model.trees) > 2 * forest._WALK_PAIRS  # several blocks, the last one short
        expected = _per_tree_votes(model, queries)
        assert model.predict_proba(queries).tobytes() == expected.tobytes()
        assert model.predict_proba(queries[:1]).tobytes() == expected[:1].tobytes()
        for tree in model.trees[:3]:
            assert tree.predict(queries).tobytes() == _tree_walk(tree, queries).tobytes()

    @pytest.mark.parametrize("pairs", [1, 7, 30, 100])
    def test_uneven_blocks(self, monkeypatch, pairs):
        from scanalytics.classify import forest

        rng = np.random.default_rng(32)
        X = rng.integers(0, 4, size=(30, 5)).astype(float)
        y = ((X[:, 0] + rng.integers(0, 4, 30)) > 3).astype(np.int8)  # noisy, so the trees differ
        model = train_forest_model(X, y, [f"f{i}" for i in range(5)], seed=6, n_estimators=10)
        expected = _per_tree_votes(model, X)
        monkeypatch.setattr(forest, "_WALK_PAIRS", pairs)
        assert model.predict_proba(X).tobytes() == expected.tobytes()
        assert model.predict_proba(X[:1]).tobytes() == expected[:1].tobytes()
        assert model.predict_proba(X[:0]).shape == (0,)


class TestSavedModelBytes:
    def test_pinned_digest(self, tmp_path):
        import hashlib

        rng = np.random.default_rng(41)
        X = rng.integers(0, 5, size=(120, 4)).astype(float) / 4
        X[::9, 3] = np.nan
        y = ((X[:, 0] + X[:, 1] + rng.random(120)) > 1.2).astype(np.int8)
        model = train_forest_model(X, y, ["a", "b", "c", "d"], seed=5, n_estimators=4, max_features=2)
        path = tmp_path / "model.json"
        save_forest(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == "039c23c9bb80cce32d2844328281178ec6e8ee1ac64cb0863d47927b9d9907f6"
