"""Decision forest: training, prediction, determinism, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from scanalytics.classify.forest import (
    ModelFormatError,
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
