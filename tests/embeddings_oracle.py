"""The per-pair skip-gram code the block engine replaced, kept as a test oracle.

sgns_loss and sgns_gradients give one (center, context) pair's loss and
gradients, _negative_sampling_cdf counts in a Python loop, and
pretrain_embeddings is the sequential SGD loop that updated the tables after
every pair. They are the former implementations, unchanged apart from
imports. tests/test_embeddings.py checks the block engine in
notepheno.embeddings against them.
"""

from __future__ import annotations

import numpy as np

from notepheno.corpus import PAD_ID, Vocabulary
from notepheno.embeddings import (
    MIN_LR_FRACTION,
    NEGATIVE_SAMPLING_POWER,
    EmbeddingMatrix,
    PretrainConfig,
    _log_sigmoid,
)


def sgns_loss(center: np.ndarray, context: np.ndarray, negatives: np.ndarray) -> float:
    """Negative-sampling loss for one (center, context) pair.

    -log(sigmoid(u_ctx . v)) - sum_j log(sigmoid(-u_j . v))
    """
    pos = _log_sigmoid(float(context @ center))
    neg = _log_sigmoid(-(negatives @ center)) if len(negatives) else 0.0
    return float(-pos - np.sum(neg))


def sgns_gradients(
    center: np.ndarray, context: np.ndarray, negatives: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss plus analytic gradients wrt the center, context, and negative vectors."""
    score_pos = float(context @ center)
    s_pos = 1.0 / (1.0 + np.exp(-score_pos))
    loss = -float(_log_sigmoid(score_pos))
    d_center = (s_pos - 1.0) * context
    d_context = (s_pos - 1.0) * center
    if len(negatives):
        scores_neg = negatives @ center
        s_neg = 1.0 / (1.0 + np.exp(-scores_neg))
        loss -= float(np.sum(_log_sigmoid(-scores_neg)))
        d_center = d_center + s_neg @ negatives
        d_negatives = s_neg[:, None] * center[None, :]
    else:
        d_negatives = np.zeros((0, center.shape[0]))
    return loss, d_center, d_context, d_negatives


def _negative_sampling_cdf(id_sequences: list[list[int]], vocab_size: int):
    counts = np.zeros(vocab_size)
    for ids in id_sequences:
        for i in ids:
            counts[i] += 1
    weights = counts**NEGATIVE_SAMPLING_POWER
    weights[PAD_ID] = 0.0
    total = weights.sum()
    if total == 0:
        return None
    return np.cumsum(weights / total)


def pretrain_embeddings(
    corpus: list[list[str]],
    vocab: Vocabulary,
    cfg: PretrainConfig,
    loss_history: list[float] | None = None,
) -> EmbeddingMatrix:
    """Train skip-gram-with-negative-sampling embeddings; deterministic under seed.

    Stochastic gradient steps with a linearly decaying learning rate; the
    context window per center position is sampled uniformly in [1, window]
    (word2vec convention). With epochs=0 the seeded random initialization is
    returned unchanged. An optional loss_history list receives the mean
    per-pair loss of each epoch.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / cfg.dim
    w_in = rng.uniform(-bound, bound, size=(len(vocab), cfg.dim))
    w_in[PAD_ID] = 0.0
    w_out = np.zeros((len(vocab), cfg.dim))

    id_sequences = [vocab.resolve(tokens) for tokens in corpus]
    cdf = _negative_sampling_cdf(id_sequences, len(vocab))
    total_centers = cfg.epochs * sum(len(ids) for ids in id_sequences)
    if cfg.epochs == 0 or total_centers == 0 or cdf is None:
        return EmbeddingMatrix(vectors=w_in)

    ids_array = np.arange(len(vocab))
    processed = 0
    for _ in range(cfg.epochs):
        epoch_loss = 0.0
        epoch_pairs = 0
        for ids in id_sequences:
            n = len(ids)
            for t in range(n):
                lr = max(
                    cfg.learning_rate * (1.0 - processed / total_centers),
                    cfg.learning_rate * MIN_LR_FRACTION,
                )
                processed += 1
                b = int(rng.integers(1, cfg.window + 1))
                center = ids[t]
                for offset in range(-b, b + 1):
                    pos = t + offset
                    if offset == 0 or pos < 0 or pos >= n:
                        continue
                    context = ids[pos]
                    draws = ids_array[np.searchsorted(cdf, rng.random(cfg.negatives))]
                    negs = draws[draws != context]
                    v = w_in[center]
                    u_ctx = w_out[context]
                    u_negs = w_out[negs]
                    loss, d_v, d_ctx, d_negs = sgns_gradients(v, u_ctx, u_negs)
                    w_in[center] = v - lr * d_v
                    w_out[context] = u_ctx - lr * d_ctx
                    if len(negs):
                        np.subtract.at(w_out, negs, lr * d_negs)
                    epoch_loss += loss
                    epoch_pairs += 1
        if loss_history is not None:
            loss_history.append(epoch_loss / max(epoch_pairs, 1))

    w_in[PAD_ID] = 0.0  # never touched, but make the contract explicit
    return EmbeddingMatrix(vectors=w_in)
