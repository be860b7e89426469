"""Classical learners over sparse feature matrices, and the baseline pipelines.

L2-regularized logistic regression (full-batch adadelta) and a random forest
grown on Gini impurity, both deterministic under their seeds. Both fit on and
score the CSR matrix featurize.transform builds, one row per note.

MODELS names each baseline's learner and feature pipeline. Training and
evaluate featurize and score through the same functions, from the pipeline
record each checkpoint carries.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import concepts, featurize
from .corpus import in_range
from .featurize import FeatureSpace
from .optim import AdadeltaState, adadelta_step, logistic

LOGREG_MAX_ITERS = 2000
LOGREG_GRAD_TOL = 1e-5

# Baseline name -> (learner kind, feature pipeline). n-gram pipelines feed raw
# n-gram counts; concept pipelines feed TF-IDF over (concept, negated) counts
# from the dictionary, cut to the phenotype's tagged entries when filtered.
MODELS = {
    "2gram-lr": ("logreg", {"features": "ngram", "n": 2, "tfidf": False}),
    "3gram-lr": ("logreg", {"features": "ngram", "n": 3, "tfidf": False}),
    "ctakes-rf": ("random_forest", {"features": "concepts", "filtered": False, "tfidf": True}),
    "ctakes-lr": ("logreg", {"features": "concepts", "filtered": False, "tfidf": True}),
    "filter-rf": ("random_forest", {"features": "concepts", "filtered": True, "tfidf": True}),
    "filter-lr": ("logreg", {"features": "concepts", "filtered": True, "tfidf": True}),
}


def pipeline_record(name: str, phenotype: str) -> dict:
    """The pipeline record a checkpoint of baseline `name` for `phenotype` carries."""
    return {"model": name, "phenotype": phenotype, **MODELS[name][1]}


def check_pipeline(kind: str, pipeline) -> None:
    """ValueError unless pipeline is the record of a `kind` baseline for a named phenotype."""
    name = pipeline.get("model") if isinstance(pipeline, dict) else None
    phenotype = pipeline.get("phenotype") if isinstance(pipeline, dict) else None
    if not (
        isinstance(name, str)
        and MODELS.get(name, (None,))[0] == kind
        and isinstance(phenotype, str)
        and phenotype
        and pipeline == pipeline_record(name, phenotype)
    ):
        raise ValueError(f"pipeline {json.dumps(pipeline)} is not a {kind} baseline's record")


def pipeline_counts(pipeline: dict, token_lists: list[list[str]], dictionary=None) -> list[dict]:
    """Feature counts of each token list under a recorded pipeline.

    A filtered concept pipeline keeps the dictionary entries tagged with the
    phenotype the pipeline records.
    """
    if pipeline["features"] == "ngram":
        return [featurize.extract_ngrams(tokens, pipeline["n"]) for tokens in token_lists]
    if pipeline["filtered"]:
        dictionary = concepts.filter_dictionary(dictionary, pipeline["phenotype"])
    return [
        concepts.count_concepts(concepts.match_concepts(tokens, dictionary))
        for tokens in token_lists
    ]


def pipeline_vectors(pipeline: dict, counts: list[dict], space: FeatureSpace) -> sparse.csr_matrix:
    """The feature matrix of pipeline_counts output over a fitted space."""
    return featurize.transform(counts, space, pipeline["tfidf"])


def vectors_to_csr(X: list[dict[int, float]], n_features: int) -> sparse.csr_matrix:
    """CSR matrix of {column: value} rows."""
    rows, cols, vals = [], [], []
    for r, vec in enumerate(X):
        for c, v in vec.items():
            rows.append(r)
            cols.append(c)
            vals.append(v)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(X), n_features))


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    l2_lambda: float


def logreg_objective_and_grads(
    weights: np.ndarray,
    bias: float,
    X: sparse.csr_matrix,
    y: np.ndarray,
    l2_lambda: float,
    X_T: sparse.csr_matrix | None = None,
) -> tuple[float, np.ndarray, float]:
    """Mean binary cross-entropy plus (lambda/2)||w||^2, and its gradients.

    The bias is not regularized. X_T, X.T in CSR form, lets a caller that
    evaluates many iterates transpose X once; the gradient is the same.
    """
    n = X.shape[0]
    logits = X @ weights + bias
    p = logistic(logits)
    eps = 1e-12
    nll = -np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps))
    objective = nll + 0.5 * l2_lambda * float(weights @ weights)
    residual = p - y
    grad_w = (X.T if X_T is None else X_T) @ residual / n + l2_lambda * weights
    grad_b = float(np.mean(residual))
    return float(objective), np.asarray(grad_w).ravel(), grad_b


def train_logreg(
    X: sparse.csr_matrix,
    y: list[int],
    l2_lambda: float = 1.0,
    max_iters: int = LOGREG_MAX_ITERS,
    tol: float = LOGREG_GRAD_TOL,
    objective_history: list[float] | None = None,
) -> LinearModel:
    """Full-batch adadelta on the regularized log-loss from a zero start.

    Runs until the gradient infinity-norm drops below tol or max_iters is hit
    (a warning flags the capped case) and returns the best-objective iterate
    seen, which guards against adadelta's oscillation on extremely
    ill-conditioned problems (huge l2_lambda, or a single-class y with
    l2_lambda 0). Deterministic: the start is zero and batches are full.
    """
    if not X.shape[0] or X.shape[0] != len(y):
        raise ValueError("X and y must be non-empty and the same length")
    y_arr = np.asarray(y, dtype=float)
    X_T = X.T.tocsr()

    weights = np.zeros(X.shape[1])
    bias = np.zeros(1)
    params = {"weights": weights, "bias": bias}
    state = AdadeltaState.for_params(params)
    best = (np.inf, weights.copy(), 0.0)
    converged = False
    for _ in range(max_iters + 1):
        objective, grad_w, grad_b = logreg_objective_and_grads(
            weights, float(bias[0]), X, y_arr, l2_lambda, X_T
        )
        if objective_history is not None:
            objective_history.append(objective)
        if objective < best[0]:
            best = (objective, weights.copy(), float(bias[0]))
        grad_inf = max(float(np.max(np.abs(grad_w))) if len(grad_w) else 0.0, abs(grad_b))
        if grad_inf < tol:
            converged = True
            break
        adadelta_step(params, {"weights": grad_w, "bias": np.array([grad_b])}, state, 0.95, 1e-6)
    if not converged:
        warnings.warn(
            f"logistic regression stopped at the {max_iters}-iteration cap "
            "before reaching the gradient tolerance"
        )
    return LinearModel(weights=best[1], bias=best[2], l2_lambda=l2_lambda)


@dataclass
class Forest:
    """All trees' nodes in parallel arrays, tree after tree, each in preorder;
    roots holds each tree's first node. A leaf has feature == left == right ==
    -1 and its positive fraction; a split sends a row left when value <=
    threshold, and both its children come after it.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    fraction: np.ndarray
    roots: np.ndarray
    n_features_per_split: int = in_range(ge=1)
    seed: int
    max_depth: int | None = in_range(None, ge=1)
    bootstrap: bool = True


def _gini(pos: np.ndarray, n: np.ndarray) -> np.ndarray:
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(X: np.ndarray, rows: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Lowest weighted child Gini over candidate (feature, midpoint) splits of
    X's rows `rows`, whose labels y holds; None if no split leaves both
    children non-empty.

    One sorted sweep per feature: a row goes left when its value is <= the
    midpoint, so a left child is a prefix of the sorted values, counted with
    searchsorted and its positives read from a running count. The first
    lowest impurity wins, over features in the given order.
    """
    n, n_pos = len(rows), int(y.sum())
    best = None  # (impurity, feature, threshold)
    for f in features:
        values = X[rows, f]
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        if ordered[0] == ordered[-1]:
            continue
        uniq = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
        thresholds = (uniq[:-1] + uniq[1:]) / 2.0
        n_left = np.searchsorted(ordered, thresholds, side="right")
        valid = (n_left > 0) & (n_left < n)
        if not valid.any():
            continue
        thresholds, n_left = thresholds[valid], n_left[valid]
        pos_left = np.cumsum(y[order])[n_left - 1]
        pos_right = n_pos - pos_left
        impurity = (
            n_left * _gini(pos_left, n_left) + (n - n_left) * _gini(pos_right, n - n_left)
        ) / n
        i = int(np.argmin(impurity))
        if best is None or impurity[i] < best[0]:
            best = (float(impurity[i]), int(f), float(thresholds[i]))
    return best


def train_rf(
    X: sparse.csr_matrix,
    y: list[int],
    n_trees: int = 100,
    max_depth: int | None = None,
    n_features_per_split: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> Forest:
    """Grow a seeded forest; each tree sees a bootstrap resample of the data.

    Splits minimize weighted Gini impurity over a random feature subset
    (default ceil(sqrt(D)) features). Growth stops at max_depth, a pure node,
    or fewer than 2 samples. bootstrap=False is a test mode that trains every
    tree on the full dataset. A matrix with no columns grows single-leaf trees.
    """
    if not X.shape[0] or X.shape[0] != len(y):
        raise ValueError("X and y must be non-empty and the same length")
    if n_features_per_split is None:
        n_features_per_split = int(np.ceil(np.sqrt(max(X.shape[1], 1))))
    dense = X.toarray()
    y_arr = np.asarray(y, dtype=int)

    nodes: list[list] = []  # [feature, threshold, left, right, fraction] per node
    roots = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            sample = rng.integers(0, len(y_arr), size=len(y_arr))
        else:
            sample = np.arange(len(y_arr))
        roots.append(len(nodes))
        # Nodes still to grow: (rows of dense, depth, the split whose right
        # child it is). Popping a left child before its right sibling grows
        # the tree, and draws from rng, in preorder, with no recursion limit.
        stack = [(sample, 0, None)]
        while stack:
            rows, depth, parent = stack.pop()
            if parent is not None:
                nodes[parent][3] = len(nodes)
            y_node = y_arr[rows]
            n, pos = len(y_node), int(y_node.sum())
            best = None
            if not (pos == 0 or pos == n or n < 2 or (max_depth is not None and depth >= max_depth)):
                order = rng.permutation(dense.shape[1])
                k = min(n_features_per_split, dense.shape[1])
                best = _best_split(dense, rows, y_node, np.sort(order[:k]))
                while best is None and k < dense.shape[1]:
                    # the drawn subset admits no valid split; widen the search
                    best = _best_split(dense, rows, y_node, order[k : k + 1])
                    k += 1
            if best is None:
                nodes.append([-1, 0.0, -1, -1, pos / n])
                continue
            _, feature, threshold = best
            goes_left = dense[rows, feature] <= threshold
            nodes.append([feature, threshold, len(nodes) + 1, -1, 0.0])
            stack.append((rows[~goes_left], depth + 1, len(nodes) - 1))
            stack.append((rows[goes_left], depth + 1, None))
    feature, threshold, left, right, fraction = np.array(nodes, dtype=float).reshape(-1, 5).T
    return Forest(
        feature.astype(int), threshold, left.astype(int), right.astype(int), fraction,
        np.array(roots, dtype=int), n_features_per_split, seed, max_depth, bootstrap,
    )


def predict_proba(kind: str, model: LinearModel | Forest, X: sparse.csr_matrix) -> np.ndarray:
    """Positive-class probability of each row of X under either learner kind.

    A forest's probability is the mean of its trees' leaf positive-fractions,
    always in [0, 1].
    """
    if kind == "logreg":
        return logistic(X @ model.weights + model.bias)
    n_trees = len(model.roots)
    if not n_trees:
        raise ValueError("cannot predict with an empty forest")
    dense = X.toarray()
    # The node each (note, tree) pair has reached, flat in (notes, trees)
    # order; every pair still at a split steps one level down at once.
    node = np.tile(model.roots, X.shape[0])
    active = np.flatnonzero(model.feature[node] >= 0)
    while len(active):
        at = node[active]
        left = dense[active // n_trees, model.feature[at]] <= model.threshold[at]
        node[active] = np.where(left, model.left[at], model.right[at])
        active = active[model.feature[node[active]] >= 0]
    # each note's trees are one contiguous row, which mean() sums the way
    # np.mean sums one note's list of tree fractions
    return model.fraction[node].reshape(-1, n_trees).mean(axis=1)
