"""The baseline code that the feature matrix and the forest's node arrays
replaced, kept as a test oracle.

count_transform and tfidf_transform turn one note's counts into a
{column: value} dict; vectors_to_dense, predict_logreg, predict_tree and
predict_rf read such dicts one note at a time. TreeNode, _grow_tree, _route,
_tree_to_json and _tree_from_json are the recursive forest and its v1
checkpoint form; grow_forest and route_forest are the forest parts of the
former train_rf and predict_proba, and _best_split and _gini its split search,
which counted the rows at or below each midpoint afresh. TOKEN_RE,
extract_ngrams and match_concepts are the former tokenizer regex, n-gram loop
and concept scan, which tried every phrase length up to the dictionary's
longest at every token. All of these are the former implementations, unchanged
apart from imports and the scan computing that longest length itself. flatten
lays TreeNode trees out as baselines.Forest's node arrays.
tests/test_featurize.py, tests/test_baselines.py, tests/test_corpus.py and
tests/test_concepts.py check featurize.transform, featurize.extract_ngrams,
baselines.train_rf, baselines._best_split, baselines.predict_proba,
corpus.tokenize and concepts.match_concepts against them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from notepheno.baselines import LinearModel
from notepheno.concepts import ConceptDictionary, ConceptMention, detect_negation
from notepheno.featurize import FeatureKey, FeatureSpace

FeatureVector = dict[int, float]

TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_")


def extract_ngrams(tokens: list[str], n: int) -> dict[tuple, int]:
    """Counts of every contiguous n-token window; empty for short inputs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts: dict[tuple, int] = {}
    for i in range(len(tokens) - n + 1):
        key = tuple(tokens[i : i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def match_concepts(tokens: list[str], dictionary: ConceptDictionary) -> list[ConceptMention]:
    """Longest-match-first, left-to-right, non-overlapping dictionary scan.

    At each position the longest matching phrase wins and the scan resumes
    after it; entries of different concepts sharing that phrase each get a
    mention. Every mention carries its negation flag.
    """
    by_phrase = dictionary.by_phrase
    max_len = max(map(len, by_phrase), default=0)
    mentions: list[ConceptMention] = []
    i = 0
    n = len(tokens)
    while i < n:
        matched = None
        for length in range(min(max_len, n - i), 0, -1):
            phrase = tuple(tokens[i : i + length])
            if phrase in by_phrase:
                matched = (length, by_phrase[phrase])
                break
        if matched is None:
            i += 1
            continue
        length, concept_ids = matched
        negated = detect_negation(tokens, (i, i + length))
        for cid in concept_ids:
            mentions.append(ConceptMention(cid, i, i + length, negated))
        i += length
    return mentions


def count_transform(counts: dict[FeatureKey, int], space: FeatureSpace) -> FeatureVector:
    """Raw count vector over the fitted columns; unseen features are dropped."""
    vec: FeatureVector = {}
    for key, count in counts.items():
        idx = space.feature_to_index.get(key)
        if idx is not None and count:
            vec[idx] = float(count)
    return vec


def tfidf_transform(counts: dict[FeatureKey, int], space: FeatureSpace) -> FeatureVector:
    """count * idf per column, then L2-normalized (the zero vector stays zero)."""
    if space.idf is None:
        raise ValueError("feature space has no fitted idf")
    vec: FeatureVector = {}
    for key, count in counts.items():
        idx = space.feature_to_index.get(key)
        if idx is not None and count:
            vec[idx] = count * space.idf[idx]
    norm = math.sqrt(sum(v * v for v in vec.values()))
    if norm > 0:
        vec = {idx: v / norm for idx, v in vec.items()}
    return vec


def vectors_to_dense(X: list[FeatureVector], n_features: int) -> np.ndarray:
    out = np.zeros((len(X), n_features))
    for r, vec in enumerate(X):
        for c, v in vec.items():
            out[r, c] = v
    return out


def predict_logreg(model: LinearModel, x: FeatureVector) -> float:
    score = model.bias
    for idx, value in x.items():
        if idx < len(model.weights):
            score += model.weights[idx] * value
    return float(1.0 / (1.0 + np.exp(-score)))


def _gini(pos: int, n: int) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray, features: np.ndarray):
    """Lowest weighted child Gini over candidate (feature, midpoint) splits."""
    n = len(y)
    best = None  # (impurity, feature, threshold)
    for f in features:
        values = X[:, f]
        uniq = np.unique(values)
        if len(uniq) < 2:
            continue
        for t in (uniq[:-1] + uniq[1:]) / 2.0:
            mask = values <= t
            n_left = int(mask.sum())
            if n_left == 0 or n_left == n:
                continue
            pos_left = int(y[mask].sum())
            pos_right = int(y.sum()) - pos_left
            impurity = (
                n_left * _gini(pos_left, n_left)
                + (n - n_left) * _gini(pos_right, n - n_left)
            ) / n
            if best is None or impurity < best[0]:
                best = (impurity, int(f), float(t))
    return best


@dataclass
class TreeNode:
    """A leaf carries the positive fraction; an internal node carries a split."""

    fraction: float | None = None
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.fraction is not None


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int | None,
    n_features_per_split: int,
    rng: np.random.Generator,
) -> TreeNode:
    n = len(y)
    pos = int(y.sum())
    if pos == 0 or pos == n or n < 2 or (max_depth is not None and depth >= max_depth):
        return TreeNode(fraction=pos / n)
    order = rng.permutation(X.shape[1])
    k = min(n_features_per_split, X.shape[1])
    best = _best_split(X, y, np.sort(order[:k]))
    while best is None and k < X.shape[1]:
        # the drawn subset admits no valid split; widen the search
        best = _best_split(X, y, order[k : k + 1])
        k += 1
    if best is None:
        return TreeNode(fraction=pos / n)
    _, feature, threshold = best
    mask = X[:, feature] <= threshold
    return TreeNode(
        feature=feature,
        threshold=threshold,
        left=_grow_tree(X[mask], y[mask], depth + 1, max_depth, n_features_per_split, rng),
        right=_grow_tree(X[~mask], y[~mask], depth + 1, max_depth, n_features_per_split, rng),
    )


def grow_forest(
    X: sparse.csr_matrix,
    y: list[int],
    n_trees: int = 100,
    max_depth: int | None = None,
    n_features_per_split: int | None = None,
    seed: int = 0,
    bootstrap: bool = True,
) -> list[TreeNode]:
    """The trees train_rf grows from the same arguments, as TreeNode trees."""
    if n_features_per_split is None:
        n_features_per_split = int(np.ceil(np.sqrt(max(X.shape[1], 1))))
    dense = X.toarray()
    y_arr = np.asarray(y, dtype=int)

    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            sample = rng.integers(0, len(y_arr), size=len(y_arr))
        else:
            sample = np.arange(len(y_arr))
        trees.append(
            _grow_tree(dense[sample], y_arr[sample], 0, max_depth, n_features_per_split, rng)
        )
    return trees


def _route(node: TreeNode, X: np.ndarray, rows: np.ndarray, out: np.ndarray):
    """Write node's leaf fraction into out at each row of X that reaches it."""
    if node.is_leaf:
        out[rows] = node.fraction
        return
    left = X[rows, node.feature] <= node.threshold
    _route(node.left, X, rows[left], out)
    _route(node.right, X, rows[~left], out)


def route_forest(trees: list[TreeNode], X: np.ndarray) -> np.ndarray:
    """Mean leaf fraction of each row of dense X, routed tree by tree with one mask per split."""
    rows = np.arange(X.shape[0])
    leaves = np.empty((X.shape[0], len(trees)))
    for t, tree in enumerate(trees):
        _route(tree, X, rows, leaves[:, t])
    return leaves.mean(axis=1)


def _tree_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"fraction": node.fraction}
    return {
        "feature": node.feature,
        "threshold": node.threshold,
        "left": _tree_to_json(node.left),
        "right": _tree_to_json(node.right),
    }


def _tree_from_json(data: dict, n_features: int) -> TreeNode:
    if "fraction" in data:
        return TreeNode(fraction=float(data["fraction"]))
    feature = int(data["feature"])
    if not 0 <= feature < n_features:
        raise ValueError(f"a tree splits on feature {feature} of a {n_features}-feature space")
    return TreeNode(
        feature=feature,
        threshold=float(data["threshold"]),
        left=_tree_from_json(data["left"], n_features),
        right=_tree_from_json(data["right"], n_features),
    )


def flatten(trees: list[TreeNode]) -> dict[str, list]:
    """The trees as baselines.Forest's node arrays: tree after tree, each in
    preorder, 0 for a split's fraction and a leaf's threshold."""
    arrays = {key: [] for key in ("feature", "threshold", "left", "right", "fraction", "roots")}

    def visit(node: TreeNode):
        index = len(arrays["feature"])
        if node.is_leaf:
            for key, value in zip(arrays, (-1, 0.0, -1, -1, node.fraction)):
                arrays[key].append(value)
            return
        for key, value in zip(arrays, (node.feature, node.threshold, index + 1, -1, 0.0)):
            arrays[key].append(value)
        visit(node.left)
        arrays["right"][index] = len(arrays["feature"])
        visit(node.right)

    for tree in trees:
        arrays["roots"].append(len(arrays["feature"]))
        visit(tree)
    return arrays


def predict_tree(node: TreeNode, x: FeatureVector) -> float:
    while not node.is_leaf:
        value = x.get(node.feature, 0.0)
        node = node.left if value <= node.threshold else node.right
    return node.fraction


def predict_rf(trees: list[TreeNode], x: FeatureVector) -> float:
    """Mean of per-tree leaf positive-fractions; always in [0, 1]."""
    if not trees:
        raise ValueError("cannot predict with an empty forest")
    return float(np.mean([predict_tree(tree, x) for tree in trees]))
