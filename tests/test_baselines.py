import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import baselines_oracle as oracle
from notepheno import checkpoint
from notepheno.baselines import (
    Forest,
    _best_split,
    LinearModel,
    logreg_objective_and_grads,
    pipeline_record,
    predict_proba,
    train_logreg,
    train_rf,
    vectors_to_csr,
)
from notepheno.featurize import fit_feature_space


def random_dataset(seed, n=30, d=5):
    rng = np.random.default_rng(seed)
    X = [{j: float(rng.normal()) for j in range(d)} for _ in range(n)]
    w_true = rng.normal(0, 1, d)
    y = [int(sum(w_true[j] * x[j] for j in x) > 0) for x in X]
    return vectors_to_csr(X, d), y


def lr_probs(model, X):
    """predict_proba of a logistic regression on {column: value} rows."""
    return predict_proba("logreg", model, vectors_to_csr(X, len(model.weights)))


def rf_probs(forest, X, d):
    return predict_proba("random_forest", forest, vectors_to_csr(X, d))


def leaf_forest(fractions, roots):
    """A forest of single-leaf trees: the leaves hold fractions, roots pick them."""
    n = len(fractions)
    return Forest(feature=np.full(n, -1), threshold=np.zeros(n), left=np.full(n, -1),
                  right=np.full(n, -1), fraction=np.array(fractions, dtype=float),
                  roots=np.array(roots, dtype=int), n_features_per_split=1, seed=0)


def forest_arrays(forest):
    return {key: getattr(forest, key).tolist() for key in checkpoint.FOREST_ARRAYS}


def chain_dataset():
    """1,500 distinct values of one feature with alternating labels: every
    split peels one row off the end, so a full tree is a chain 1,499 deep."""
    return vectors_to_csr([{0: float(i)} for i in range(1500)], 1), [i % 2 for i in range(1500)]


class TestLogreg:
    def test_separable_data_fits_perfectly(self):
        X = [{0: -1.0}, {0: 1.0}]
        y = [0, 1]
        model = train_logreg(vectors_to_csr(X, 1), y, l2_lambda=0.01)
        assert (lr_probs(model, X) >= 0.5).astype(int).tolist() == y

    def test_zero_model_predicts_half(self):
        model = LinearModel(weights=np.zeros(4), bias=0.0, l2_lambda=1.0)
        assert lr_probs(model, [{0: 3.0, 2: -1.0}]).tolist() == [0.5]

    def test_huge_lambda_shrinks_weights(self):
        X, y = random_dataset(0)
        with pytest.warns(UserWarning, match="iteration cap"):
            model = train_logreg(X, y, l2_lambda=1e6)
        assert float(np.linalg.norm(model.weights)) < 1e-2

    def test_sigmoid_analytic_value(self):
        model = LinearModel(weights=np.array([np.log(3.0)]), bias=0.0, l2_lambda=0.0)
        assert lr_probs(model, [{0: 1.0}])[0] == pytest.approx(0.75)

    def test_an_overflowing_logit_gives_zero_without_a_warning(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0, l2_lambda=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lr_probs(model, [{0: -1000.0}]).tolist() == [0.0]

    def test_monotone_in_positive_weight(self):
        model = LinearModel(weights=np.array([0.7, -0.2]), bias=0.1, l2_lambda=0.0)
        lo, hi = lr_probs(model, [{0: 1.0, 1: 2.0}, {0: 3.0, 1: 2.0}])
        assert hi >= lo

    def test_gradient_matches_finite_differences(self):
        X_csr, y = random_dataset(3, n=12, d=4)
        y_arr = np.asarray(y, dtype=float)
        rng = np.random.default_rng(9)
        w = rng.normal(0, 0.5, 4)
        b = float(rng.normal())
        lam = 0.3
        _, grad_w, grad_b = logreg_objective_and_grads(w, b, X_csr, y_arr, lam)
        h = 1e-5

        def obj(w_, b_):
            return logreg_objective_and_grads(w_, b_, X_csr, y_arr, lam)[0]

        for i in range(4):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (obj(wp, b) - obj(wm, b)) / (2 * h)
            assert abs(grad_w[i] - fd) / max(abs(grad_w[i]), abs(fd)) < 1e-4
        fd_b = (obj(w, b + h) - obj(w, b - h)) / (2 * h)
        assert abs(grad_b - fd_b) / max(abs(grad_b), abs(fd_b)) < 1e-4

    def test_gradient_with_a_prebuilt_transpose_is_exact(self):
        rng = np.random.default_rng(4)
        X = sparse.random(105, 400, density=0.05, format="csr", random_state=rng)
        y = rng.integers(0, 2, size=105).astype(float)
        w = rng.normal(0, 0.5, size=400)
        plain = logreg_objective_and_grads(w, 0.2, X, y, 0.1)
        prebuilt = logreg_objective_and_grads(w, 0.2, X, y, 0.1, X.T.tocsr())
        assert plain[0] == prebuilt[0] and plain[2] == prebuilt[2]
        np.testing.assert_array_equal(plain[1], prebuilt[1])

    def test_objective_non_increasing_with_regularization(self):
        X, y = random_dataset(0)
        history = []
        train_logreg(X, y, l2_lambda=0.5, max_iters=300, objective_history=history)
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_single_class_capped_with_warning(self):
        X = vectors_to_csr([{0: 1.0}, {0: 2.0}, {0: 3.0}], 1)
        with pytest.warns(UserWarning, match="iteration cap"):
            model = train_logreg(X, [1, 1, 1], l2_lambda=0.0, max_iters=50)
        assert np.all(np.isfinite(model.weights))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            train_logreg(vectors_to_csr([], 1), [])


def xor_dataset(copies=25):
    pts = [
        ({0: 0.0, 1: 0.0}, 0),
        ({0: 1.0, 1: 1.0}, 0),
        ({0: 0.0, 1: 1.0}, 1),
        ({0: 1.0, 1: 0.0}, 1),
    ]
    X = [x for x, _ in pts] * copies
    y = [label for _, label in pts] * copies
    return vectors_to_csr(X, 2), y


class TestRandomForest:
    def test_pure_labels_give_single_leaf_trees(self):
        X = vectors_to_csr([{0: 1.0}, {0: 2.0}, {0: 3.0}], 1)
        forest = train_rf(X, [1, 1, 1], n_trees=5, seed=0)
        assert forest_arrays(forest) == forest_arrays(leaf_forest([1.0] * 5, range(5)))

    def test_xor_learned_without_bootstrap(self):
        X, y = xor_dataset()
        forest = train_rf(
            X, y, n_trees=10, max_depth=4, n_features_per_split=2, seed=0, bootstrap=False,
        )
        preds = predict_proba("random_forest", forest, X) >= 0.5
        assert preds.astype(int).tolist() == y

    def test_same_seed_identical_forests(self):
        X, y = random_dataset(1, n=40, d=4)
        f1 = train_rf(X, y, n_trees=8, seed=5)
        f2 = train_rf(X, y, n_trees=8, seed=5)
        assert forest_arrays(f1) == forest_arrays(f2)

    def test_prediction_invariant_to_tree_order(self):
        X, y = random_dataset(2, n=30, d=3)
        forest = train_rf(X, y, n_trees=7, seed=3)
        reordered = Forest(**{**vars(forest), "roots": forest.roots[::-1]})
        np.testing.assert_allclose(
            predict_proba("random_forest", forest, X), predict_proba("random_forest", reordered, X)
        )

    def test_duplicated_tree_pulls_prediction_toward_it(self):
        base = rf_probs(leaf_forest([0.0, 1.0], [0, 1]), [{}], 1)[0]
        pulled = rf_probs(leaf_forest([0.0, 1.0], [0, 1, 1]), [{}], 1)[0]
        assert base == pytest.approx(0.5)
        assert pulled > base

    def test_single_full_tree_has_zero_training_error(self):
        X, y = random_dataset(7, n=50, d=4)
        forest = train_rf(
            X, y, n_trees=1, max_depth=None, n_features_per_split=2, seed=11, bootstrap=False,
        )
        preds = predict_proba("random_forest", forest, X) >= 0.5
        assert preds.astype(int).tolist() == y

    def test_single_leaf_forest_returns_fraction(self):
        assert rf_probs(leaf_forest([0.8], [0]), [{0: 5.0}], 1)[0] == pytest.approx(0.8)

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            rf_probs(leaf_forest([], []), [{}], 1)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_prediction_in_unit_interval(self, seed):
        X, y = random_dataset(4, n=20, d=3)
        forest = train_rf(X, y, n_trees=3, max_depth=3, seed=seed)
        rng = np.random.default_rng(seed)
        x = {j: float(rng.normal()) for j in range(3)}
        assert 0.0 <= rf_probs(forest, [x], 3)[0] <= 1.0


def both_split_searches(X, y, features, rows=None):
    """(the sorted sweep's split, the oracle's) over rows of dense X, all rows by default."""
    X, y, features = np.asarray(X, dtype=float), np.asarray(y, dtype=int), np.asarray(features)
    rows = np.arange(len(y)) if rows is None else np.asarray(rows)
    return _best_split(X, rows, y[rows], features), oracle._best_split(X[rows], y[rows], features)


ONE = 1.0
BELOW_ONE = float(np.nextafter(1.0, 0.0))
ABOVE_ONE = float(np.nextafter(1.0, 2.0))


class TestSplitSearch:
    def test_a_midpoint_that_rounds_up_to_the_larger_value_is_dropped(self):
        """(BELOW_ONE + 1) / 2 rounds to 1.0, so that split sends every row left."""
        got, want = both_split_searches([[BELOW_ONE], [ONE]], [0, 1], [0])
        assert got is None and want is None

    def test_a_midpoint_that_rounds_down_still_splits(self):
        got, want = both_split_searches([[ONE], [ABOVE_ONE]], [0, 1], [0])
        assert got == want == (0.0, 0, 1.0)

    def test_adjacent_doubles_among_other_values(self):
        X = [[0.0, 2.0], [BELOW_ONE, 2.0], [ONE, ABOVE_ONE], [ONE, ONE], [2.0, BELOW_ONE], [2.0, 0.0]]
        for y in ([0, 0, 1, 1, 1, 1], [1, 0, 1, 0, 1, 0], [0, 1, 0, 0, 1, 1]):
            for features in ([0], [1], [0, 1], [1, 0]):
                got, want = both_split_searches(X, y, features)
                assert got == want, (y, features)

    def test_a_widened_search_grows_the_oracle_forest(self):
        """With one feature drawn per split and only the last column varying,
        most draws admit no split and the search widens feature by feature."""
        rng = np.random.default_rng(4)
        rows = [{0: 1.0, 1: 2.0, 2: 0.0, 3: float(rng.integers(0, 6))} for _ in range(40)]
        y = [int(row[3] >= 3) ^ int(i % 7 == 0) for i, row in enumerate(rows)]
        X = vectors_to_csr(rows, 4)
        for seed in range(5):
            forest = train_rf(X, y, n_trees=3, n_features_per_split=1, seed=seed)
            assert set(forest.feature[forest.feature >= 0].tolist()) == {3}
            assert forest_arrays(forest) == oracle.flatten(
                oracle.grow_forest(X, y, 3, n_features_per_split=1, seed=seed))

    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.integers(1, 30), st.integers(1, 5))
    def test_the_sorted_sweep_is_the_oracle_search_on_tie_heavy_rows(self, data, n, d):
        values = st.sampled_from([0.0, -0.0, 0.0, 0.5, BELOW_ONE, ONE, ABOVE_ONE, 2.0, -3.0])
        X = [[data.draw(values) for _ in range(d)] for _ in range(n)]
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        features = data.draw(st.permutations(range(d)))[: data.draw(st.integers(1, d))]
        got, want = both_split_searches(X, y, features, rows)
        assert got == want


class TestCheckpoints:
    def test_logreg_roundtrip_bit_exact(self, tmp_path):
        X, y = random_dataset(5)
        space = fit_feature_space([{("tok", str(j)): 1 for j in range(5)}])
        model = train_logreg(X, y, l2_lambda=0.5)
        path = tmp_path / "lr.json"
        pipeline = {"model": "2gram-lr", "phenotype": "p", "features": "ngram", "n": 2, "tfidf": False}
        checkpoint.save(checkpoint.Checkpoint("logreg", model, ["p"], space=space, pipeline=pipeline), path)
        loaded = checkpoint.load(path)
        assert loaded.kind == "logreg" and loaded.pipeline == pipeline and loaded.phenotypes == ["p"]
        assert loaded.space.feature_to_index == space.feature_to_index
        assert loaded.space.idf.tobytes() == np.array(space.idf).tobytes()
        assert loaded.model.weights.tobytes() == model.weights.tobytes() and loaded.model.bias == model.bias
        assert predict_proba("logreg", loaded.model, X).tolist() == predict_proba("logreg", model, X).tolist()

    def test_rf_roundtrip_bit_exact(self, tmp_path):
        X, y = random_dataset(6, n=40, d=3)
        space = fit_feature_space([{("cui", True): 1, ("cui", False): 2, ("cui2", False): 1}])
        forest = train_rf(X, y, n_trees=5, max_depth=4, seed=2)
        path = tmp_path / "rf.json"
        pipeline = {"model": "ctakes-rf", "phenotype": "p", "features": "concepts",
                    "filtered": False, "tfidf": True}
        checkpoint.save(checkpoint.Checkpoint("random_forest", forest, ["p"], space=space, pipeline=pipeline), path)
        loaded = checkpoint.load(path)
        assert loaded.kind == "random_forest"
        for key in checkpoint.FOREST_ARRAYS:
            assert getattr(loaded.model, key).tobytes() == getattr(forest, key).tobytes(), key
        assert (predict_proba("random_forest", loaded.model, X).tolist()
                == predict_proba("random_forest", forest, X).tolist())

    def test_a_tree_deeper_than_the_recursion_limit_trains_roundtrips_and_predicts(self, tmp_path):
        X, y = chain_dataset()
        forest = train_rf(X, y, n_trees=1, bootstrap=False)
        assert len(forest.feature) == 2 * len(y) - 1  # a split per row but the last
        space = fit_feature_space([{("cui", False): 1}])
        path = tmp_path / "rf.json"
        checkpoint.save(checkpoint.Checkpoint("random_forest", forest, ["p"], space=space,
                                              pipeline=pipeline_record("ctakes-rf", "p")), path)
        loaded = checkpoint.load(path).model
        assert forest_arrays(loaded) == forest_arrays(forest)
        assert (predict_proba("random_forest", loaded, X) >= 0.5).astype(int).tolist() == y

    def test_v1_nested_trees_checkpoint_names_both_versions(self, tmp_path):
        X, y = random_dataset(6, n=40, d=3)
        space = fit_feature_space([{("cui", True): 1, ("cui", False): 2, ("cui2", False): 1}])
        path = tmp_path / "rf.json"
        checkpoint.save(checkpoint.Checkpoint("random_forest", train_rf(X, y, n_trees=2, seed=2), ["p"],
                                              space=space, pipeline=pipeline_record("ctakes-rf", "p")), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 1
        doc["model"] = {"trees": [oracle._tree_to_json(t) for t in oracle.grow_forest(X, y, 2, seed=2)],
                        "n_features_per_split": 2, "seed": 2, "max_depth": None, "bootstrap": True}
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format version 1, expected 3"):
            checkpoint.load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        space = fit_feature_space([{"a": 1}])
        with pytest.raises(ValueError, match="unknown checkpoint kind 'svm'"):
            checkpoint.save(checkpoint.Checkpoint("svm", LinearModel(np.zeros(1), 0.0, 1.0), ["p"],
                                                  space=space, pipeline={}), path)
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["logreg", "random_forest"])
    def test_double_roundtrip_is_stable(self, tmp_path, kind):
        X, y = random_dataset(6, n=40, d=3)
        space = fit_feature_space([{("cui", True): 1, ("cui", False): 2, ("cui2", False): 1}])
        if kind == "logreg":
            model, name = train_logreg(X, y, l2_lambda=0.5), "ctakes-lr"
        else:
            model, name = train_rf(X, y, n_trees=5, max_depth=4, seed=2), "ctakes-rf"
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        checkpoint.save(checkpoint.Checkpoint(kind, model, ["p"], space=space,
                                              pipeline=pipeline_record(name, "p")), p1)
        checkpoint.save(checkpoint.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def random_rows(seed, n, d):
    """n sparse {column: value} rows over d columns: some empty, some dense."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        cols = rng.choice(d, size=int(rng.integers(0, d + 1)), replace=False) if d else []
        rows.append({int(c): float(rng.choice([0.5, 1.0, 2.0, rng.normal()])) for c in cols})
    return rows


class TestPredictAgainstOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 12), st.integers(1, 140))
    def test_forest_equals_the_oracle_exactly(self, seed, d, n_trees):
        train = random_rows(seed, 30, d)
        y = [int(sum(x.values()) > 1.0) for x in train]
        args = (vectors_to_csr(train, d), y, n_trees, 6)
        forest = train_rf(*args, seed=seed)
        trees = oracle.grow_forest(*args, seed=seed)
        rows = random_rows(seed + 1, 25, d) + train[:5]
        got = rf_probs(forest, rows, d)
        assert got.tolist() == [oracle.predict_rf(trees, x) for x in rows]

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.integers(1, 60), st.integers(0, 8), st.booleans(),
           st.sampled_from([None, 1, 3]), st.integers(0, 10_000))
    def test_forest_arrays_are_the_recursive_forest_in_preorder(
        self, data, n, d, bootstrap, max_depth, seed
    ):
        """On small matrices full of ties, train_rf's node arrays are the
        oracle's recursive trees (read back from their v1 JSON) flattened in
        preorder, and its probabilities are the oracle's, bit for bit."""
        values = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.0])
        X = vectors_to_csr([{j: data.draw(values) for j in range(d)} for _ in range(n)], d)
        y = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        n_features_per_split = data.draw(st.sampled_from([None, *range(1, d + 1)]))
        kwargs = dict(n_trees=data.draw(st.integers(1, 4)), max_depth=max_depth,
                      n_features_per_split=n_features_per_split, seed=seed, bootstrap=bootstrap)
        forest = train_rf(X, y, **kwargs)
        trees = [oracle._tree_from_json(oracle._tree_to_json(t), d)
                 for t in oracle.grow_forest(X, y, **kwargs)]
        assert forest_arrays(forest) == oracle.flatten(trees)
        queries = [{j: data.draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]))
                    for j in range(d)} for _ in range(8)]
        got = rf_probs(forest, queries, d).tolist()
        assert got == oracle.route_forest(trees, vectors_to_csr(queries, d).toarray()).tolist()
        assert got == [oracle.predict_rf(trees, x) for x in queries]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 12))
    def test_logreg_within_1e12_of_the_oracle_with_equal_labels(self, seed, d):
        rng = np.random.default_rng(seed)
        model = LinearModel(weights=rng.normal(0, 2, d), bias=float(rng.normal()), l2_lambda=1.0)
        rows = random_rows(seed, 30, d)
        got = lr_probs(model, rows)
        want = np.array([oracle.predict_logreg(model, x) for x in rows])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert ((got >= 0.5) == (want >= 0.5)).all()

    def test_zero_feature_space_predicts_the_training_fraction(self):
        X = vectors_to_csr([{}, {}, {}, {}], 0)
        forest = train_rf(X, [1, 0, 1, 1], n_trees=3, seed=1, bootstrap=False)
        assert forest.n_features_per_split == 1
        assert predict_proba("random_forest", forest, X).tolist() == [0.75] * 4
        model = train_logreg(X, [1, 0, 1, 1])
        assert model.weights.shape == (0,)
        assert predict_proba("logreg", model, X).tolist() == [oracle.predict_logreg(model, {})] * 4
