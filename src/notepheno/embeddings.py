"""Skip-gram word-embedding pretraining with negative sampling.

Trains dense per-token vectors on an unlabeled token corpus so that words
appearing in similar contexts (synonyms, abbreviations, misspellings) end up
with similar vectors. The PAD row stays exactly zero throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import PAD_ID, PAD_TOKEN, Vocabulary, require_finite

NEGATIVE_SAMPLING_POWER = 0.75
MIN_LR_FRACTION = 1e-4
# Pretraining updates each epoch's pairs in consecutive blocks of this many,
# every pair of a block reading the parameters as they were at its start. It
# trades speed for staleness: on the demo corpus, blocks of 32 and 64 kept the
# CNN's F1 and the planted-phrase check on every seed tried, while 256 and
# 1024 lost F1 on some seeds (see CHANGES.md).
SGNS_BLOCK_PAIRS = 32


@dataclass
class PretrainConfig:
    dim: int = 100
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.025
    seed: int = 0

    def validate(self):
        require_finite(self)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.negatives < 1:
            raise ValueError(f"negatives must be >= 1, got {self.negatives}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")


@dataclass
class EmbeddingMatrix:
    """One dense vector per vocabulary id; row 0 (PAD) is all-zero and frozen."""

    vectors: np.ndarray  # (vocab_size, dim) float64

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.vectors.shape[0]

    def copy(self) -> "EmbeddingMatrix":
        return EmbeddingMatrix(vectors=self.vectors.copy())


def init_embeddings(vocab_size: int, dim: int, seed: int) -> EmbeddingMatrix:
    """Seeded uniform init in [-0.5/dim, +0.5/dim] with a zeroed PAD row."""
    rng = np.random.default_rng(seed)
    bound = 0.5 / dim
    vectors = rng.uniform(-bound, bound, size=(vocab_size, dim))
    vectors[PAD_ID] = 0.0
    return EmbeddingMatrix(vectors=vectors)


def _log_sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    return -np.logaddexp(0.0, -x)


def _negative_sampling_cdf(ids: np.ndarray, vocab_size: int):
    counts = np.bincount(ids, minlength=vocab_size)
    weights = counts**NEGATIVE_SAMPLING_POWER
    weights[PAD_ID] = 0.0
    total = weights.sum()
    if total == 0:
        return None
    return np.cumsum(weights / total)


def _epoch_pairs(
    ids: np.ndarray,
    lengths: np.ndarray,
    spans: np.ndarray,
    cfg: PretrainConfig,
    first_center: int,
    total_centers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One epoch's (center id, context id, learning rate) arrays.

    ids is the flattened corpus, lengths the length of each note, and spans
    the window drawn for each center position. Pairs are ordered by center
    position, then by offset from -span to +span, and never cross a note
    boundary. A pair's learning rate decays linearly with its center's
    running index over all epochs, starting from first_center.
    """
    ends = np.repeat(np.cumsum(lengths), lengths)
    starts = ends - np.repeat(lengths, lengths)
    t = np.arange(len(ids))
    offsets = np.concatenate([np.arange(-cfg.window, 0), np.arange(1, cfg.window + 1)])
    keep = np.abs(offsets) <= spans[:, None]
    keep &= offsets >= (starts - t)[:, None]
    keep &= offsets < (ends - t)[:, None]
    rows, cols = np.nonzero(keep)
    center_lrs = np.maximum(
        cfg.learning_rate * (1.0 - (first_center + t) / total_centers),
        cfg.learning_rate * MIN_LR_FRACTION,
    )
    return ids[rows], ids[rows + offsets[cols]], center_lrs[rows]


def _block_gradients(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    targets: np.ndarray,
    kept: np.ndarray,
    with_loss: bool,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Negative-sampling loss and gradients of a block of pairs, all taken at
    the parameters as they are at the start of the block.

    Pair i has center row centers[i] of w_in; column 0 of targets[i] is its
    context row of w_out and the other columns its negatives. kept is False
    where a negative equals its pair's context, which gives that negative
    zero weight. Returns the block's summed loss (0.0 unless with_loss), the
    (B, dim) center gradients and the (B, 1 + negatives, dim) target
    gradients; rows repeated within the block are not summed here.
    """
    v = w_in[centers]  # (B, dim)
    u = w_out[targets]  # (B, 1 + negatives, dim)
    scores = (u @ v[:, :, None])[:, :, 0]
    g = 1.0 / (1.0 + np.exp(-scores))
    g[:, 0] -= 1.0
    g[:, 1:] *= kept
    loss = 0.0
    if with_loss:
        loss = -float(
            np.sum(_log_sigmoid(scores[:, 0])) + np.sum(kept * _log_sigmoid(-scores[:, 1:]))
        )
    d_centers = (g[:, None, :] @ u)[:, 0, :]
    d_targets = g[:, :, None] * v[:, None, :]
    return loss, d_centers, d_targets


def _scatter_subtract(table: np.ndarray, rows: np.ndarray, deltas: np.ndarray):
    """table[rows] -= deltas, summing repeated rows, through the flat view of table."""
    dim = table.shape[1]
    flat_index = rows.reshape(-1, 1) * dim + np.arange(dim)
    np.subtract.at(table.reshape(-1), flat_index.reshape(-1), deltas.reshape(-1))


def _sgns_block_step(
    w_in: np.ndarray,
    w_out: np.ndarray,
    centers: np.ndarray,
    targets: np.ndarray,
    kept: np.ndarray,
    lrs: np.ndarray,
    with_loss: bool,
) -> float:
    """One SGD step on a block of pairs, in place; returns the block's loss."""
    loss, d_centers, d_targets = _block_gradients(w_in, w_out, centers, targets, kept, with_loss)
    d_centers *= lrs[:, None]
    d_targets *= lrs[:, None, None]
    _scatter_subtract(w_in, centers, d_centers)
    _scatter_subtract(w_out, targets, d_targets)
    return loss


def pretrain_embeddings(
    corpus: list[list[str]],
    vocab: Vocabulary,
    cfg: PretrainConfig,
    loss_history: list[float] | None = None,
) -> EmbeddingMatrix:
    """Train skip-gram-with-negative-sampling embeddings; deterministic under seed.

    Stochastic gradient steps with a linearly decaying learning rate; the
    context window per center position is sampled uniformly in [1, window]
    (word2vec convention). Each epoch's pairs are taken in order in blocks of
    SGNS_BLOCK_PAIRS, and every pair of a block is updated from the
    parameters at the start of the block. With epochs=0 the seeded random
    initialization is returned unchanged. An optional loss_history list
    receives the mean per-pair loss of each epoch.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    bound = 0.5 / cfg.dim
    w_in = rng.uniform(-bound, bound, size=(len(vocab), cfg.dim))
    w_in[PAD_ID] = 0.0
    w_out = np.zeros((len(vocab), cfg.dim))

    id_sequences = [vocab.resolve(tokens) for tokens in corpus]
    lengths = np.array([len(ids) for ids in id_sequences], dtype=np.int64)
    n_tokens = int(lengths.sum())
    ids = np.fromiter(chain.from_iterable(id_sequences), dtype=np.int64, count=n_tokens)
    cdf = _negative_sampling_cdf(ids, len(vocab))
    total_centers = cfg.epochs * n_tokens
    if cfg.epochs == 0 or total_centers == 0 or cdf is None:
        return EmbeddingMatrix(vectors=w_in)

    with_loss = loss_history is not None
    for epoch in range(cfg.epochs):
        spans = rng.integers(1, cfg.window + 1, size=n_tokens)
        centers, contexts, lrs = _epoch_pairs(
            ids, lengths, spans, cfg, epoch * n_tokens, total_centers
        )
        epoch_loss = 0.0
        for lo in range(0, len(centers), SGNS_BLOCK_PAIRS):
            hi = lo + SGNS_BLOCK_PAIRS
            context = contexts[lo:hi, None]
            draws = np.searchsorted(cdf, rng.random((len(context), cfg.negatives)))
            epoch_loss += _sgns_block_step(
                w_in, w_out, centers[lo:hi], np.concatenate([context, draws], axis=1),
                draws != context, lrs[lo:hi], with_loss,
            )
        if with_loss:
            loss_history.append(epoch_loss / max(len(centers), 1))
        del centers, contexts, lrs  # free this epoch's pairs before the next epoch's are built

    w_in[PAD_ID] = 0.0  # never touched, but make the contract explicit
    return EmbeddingMatrix(vectors=w_in)


def save_embeddings(emb: EmbeddingMatrix, vocab: Vocabulary, path: str | Path):
    """Text format: a 'dim N' header, then one 'token v1 ... vN' line per token."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim {emb.dim}\n")
        for i, token in enumerate(vocab.id_to_token):
            values = " ".join(repr(float(x)) for x in emb.vectors[i])
            fh.write(f"{token} {values}\n")


def load_embeddings(path: str | Path) -> tuple[list[str], EmbeddingMatrix]:
    """Read the text format back; returns the token order and the matrix."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "dim":
            raise ValueError(f"{path}: expected 'dim N' header, got {header!r}")
        dim = int(header[1])
        tokens = []
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{lineno}: expected token plus {dim} floats")
            tokens.append(parts[0])
            rows.append([float(x) for x in parts[1:]])
    matrix = np.array(rows) if rows else np.zeros((0, dim))
    if tokens and tokens[0] == PAD_TOKEN and np.any(matrix[0] != 0):
        raise ValueError(f"{path}: PAD row must be all-zero")
    return tokens, EmbeddingMatrix(vectors=matrix)
