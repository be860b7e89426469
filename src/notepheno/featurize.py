"""Sparse feature extraction: n-gram counts and smoothed TF-IDF matrices.

Feature keys are hashable objects: n-gram tuples of tokens, or
(concept_id, negated) pairs coming out of the concept matcher. A corpus
becomes one CSR matrix with a row per document and a column per fitted key.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

FeatureKey = tuple

IDF_VARIANT = "smooth-ln((1+N)/(1+df))+1, l2-normalized documents"


def extract_ngrams(tokens: list[str], n: int) -> dict[tuple, int]:
    """Counts of every contiguous n-token window; empty for short inputs."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    # keys in first-seen order, as the column assignment relies on
    return Counter(zip(*(tokens[i:] for i in range(n))))


@dataclass
class FeatureSpace:
    """Column assignment for feature keys, with per-column smoothed IDF."""

    feature_to_index: dict[FeatureKey, int]
    idf: list[float] | np.ndarray | None = None
    variant: str = IDF_VARIANT
    index_to_feature: list[FeatureKey] = field(default_factory=list, repr=False)

    def __post_init__(self):
        if not self.index_to_feature:
            self.index_to_feature = [None] * len(self.feature_to_index)
            for key, idx in self.feature_to_index.items():
                self.index_to_feature[idx] = key

    @property
    def n_features(self) -> int:
        return len(self.feature_to_index)


def fit_feature_space(corpus_counts: list[dict[FeatureKey, int]]) -> FeatureSpace:
    """Assign columns in first-seen order and fit the smoothed IDF.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1 with N documents and df(t) the
    number of documents containing feature t.
    """
    if not corpus_counts:
        raise ValueError("cannot fit a feature space on an empty corpus")
    feature_to_index: dict[FeatureKey, int] = {}
    df: dict[FeatureKey, int] = {}
    for counts in corpus_counts:
        for key in counts:
            if key not in feature_to_index:
                feature_to_index[key] = len(feature_to_index)
            df[key] = df.get(key, 0) + 1
    n_docs = len(corpus_counts)
    idf = [0.0] * len(feature_to_index)
    for key, idx in feature_to_index.items():
        idf[idx] = math.log((1 + n_docs) / (1 + df[key])) + 1.0
    return FeatureSpace(feature_to_index=feature_to_index, idf=idf)


def transform(
    corpus_counts: list[dict[FeatureKey, int]], space: FeatureSpace, tfidf: bool
) -> sparse.csr_matrix:
    """One row per document over the fitted columns; unseen features are dropped.

    A row holds the raw counts, or with tfidf count * idf L2-normalized (the
    zero row stays zero). Each row's squares are summed in its counts' order.
    """
    if tfidf and space.idf is None:
        raise ValueError("feature space has no fitted idf")
    rows, cols, vals = [], [], []
    for r, counts in enumerate(corpus_counts):
        start = len(vals)
        for key, count in counts.items():
            idx = space.feature_to_index.get(key)
            if idx is not None and count:
                rows.append(r)
                cols.append(idx)
                vals.append(count * space.idf[idx] if tfidf else float(count))
        norm = math.sqrt(sum(v * v for v in vals[start:])) if tfidf else 0.0
        if norm > 0:
            vals[start:] = [v / norm for v in vals[start:]]
    # COO -> CSR sorts each row's columns, so products sum in column order
    return sparse.csr_matrix((vals, (rows, cols)), shape=(len(corpus_counts), space.n_features))


def tfidf_transform(counts: dict[FeatureKey, int], space: FeatureSpace) -> dict[int, float]:
    """One document's TF-IDF row as a {column: value} dict with no explicit zeros."""
    row = transform([counts], space, tfidf=True)
    return dict(zip(row.indices.tolist(), row.data.tolist()))
