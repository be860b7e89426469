"""The per-note baseline code the feature matrix replaced, kept as a test oracle.

count_transform and tfidf_transform turn one note's counts into a
{column: value} dict; vectors_to_dense, predict_logreg, predict_tree and
predict_rf read such dicts one note at a time. They are the former
implementations, unchanged apart from imports. tests/test_featurize.py and
tests/test_baselines.py check featurize.transform and baselines.predict_proba
against them.
"""

from __future__ import annotations

import math

import numpy as np

from notepheno.baselines import Forest, LinearModel, TreeNode
from notepheno.featurize import FeatureKey, FeatureSpace

FeatureVector = dict[int, float]


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


def predict_tree(node: TreeNode, x: FeatureVector) -> float:
    while not node.is_leaf:
        value = x.get(node.feature, 0.0)
        node = node.left if value <= node.threshold else node.right
    return node.fraction


def predict_rf(forest: Forest, x: FeatureVector) -> float:
    """Mean of per-tree leaf positive-fractions; always in [0, 1]."""
    if not forest.trees:
        raise ValueError("cannot predict with an empty forest")
    return float(np.mean([predict_tree(tree, x) for tree in forest.trees]))
