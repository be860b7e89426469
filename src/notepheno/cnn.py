"""Multi-width convolutional text classifier with from-scratch backpropagation.

Embedding lookup -> per-width convolution filter banks -> max-over-time
pooling -> (inverted dropout) -> per-head sigmoid output. Training runs
adadelta over all parameters, fine-tunes the embedding table, and re-applies
an L2 max-norm constraint to the embedding rows after every step.

One engine serves training, prediction, validation and saliency: it runs a
group of notes padded to a common length, with one filter-major GEMM per
filter width, max-pools the pre-activations and only then adds the bias and
applies the activation. Notes run in a stable order of length, so a group
pads little, and groups are capped in size so the working set stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse

from .corpus import PAD_ID, require_finite
from .embeddings import EmbeddingMatrix
from .metrics import confusion, f1
from .optim import AdadeltaState, adadelta_step

PROB_CLAMP = 1e-7
INIT_BOUND = 0.01
# Cap on one group's working set, in float64 elements: padded positions times
# the windows and activations each position holds. Training splits every
# minibatch, and inference every note list, into groups under this cap, so
# memory stays flat however large the batch or corpus; about ten 40-token
# notes at the default filters and a 24-dim embedding.
GROUP_ELEMENTS = 300_000


@dataclass
class CnnConfig:
    filter_widths: tuple[int, ...] = (2, 3, 4, 5)
    filters_per_width: int = 100
    dropout_p: float = 0.5
    max_norm: float = 3.0
    epochs: int = 20
    batch_size: int = 50
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6
    threshold: float = 0.5
    n_heads: int = 1
    activation: str = "tanh"
    seed: int = 0

    def __post_init__(self):
        self.filter_widths = tuple(self.filter_widths)

    def validate(self):
        require_finite(self)
        widths = self.filter_widths
        if not widths or len(set(widths)) != len(widths) or any(w < 1 for w in widths):
            raise ValueError(f"filter widths must be distinct and >= 1, got {widths}")
        if self.filters_per_width < 1:
            raise ValueError("filters_per_width must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.max_norm <= 0:
            raise ValueError("max_norm must be > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if not 0.0 < self.adadelta_rho < 1.0 or self.adadelta_eps <= 0:
            raise ValueError("adadelta_rho must be in (0, 1) and adadelta_eps > 0")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.n_heads < 1:
            raise ValueError("n_heads must be >= 1")
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")


@dataclass
class CnnModel:
    embeddings: EmbeddingMatrix
    conv_weights: dict[int, np.ndarray]  # width -> (filters, width, dim)
    conv_biases: dict[int, np.ndarray]  # width -> (filters,)
    output_weights: np.ndarray  # (heads, total filters)
    output_bias: np.ndarray  # (heads,)
    config: CnnConfig

    @property
    def total_filters(self) -> int:
        return len(self.config.filter_widths) * self.config.filters_per_width

    def parameters(self) -> dict[str, np.ndarray]:
        params = {"embeddings": self.embeddings.vectors}
        for w in self.config.filter_widths:
            params[f"conv_w{w}"] = self.conv_weights[w]
            params[f"conv_b{w}"] = self.conv_biases[w]
        params["output_weights"] = self.output_weights
        params["output_bias"] = self.output_bias
        return params


@dataclass
class BatchActivations:
    """Forward-pass caches of one group of notes padded to a common length.

    Row b holds note b padded with PAD up to the widest filter (its own
    length, lengths[b]) and then with PAD up to the group length. The grids
    hold the convolution before bias and activation (see activate()), as
    views of filter-major arrays; entries at positions past a note's last
    window are -inf, so the batch padding never wins a max-pool.
    """

    ids: np.ndarray  # (notes, positions) token ids
    lengths: np.ndarray  # (notes,) padded length of each note
    embedded: np.ndarray  # (notes, positions, dim)
    grids: dict[int, np.ndarray]  # width -> (notes, windows, filters) pre-bias
    argmax: dict[int, np.ndarray]  # width -> (notes, filters) winning positions
    pooled: np.ndarray  # (notes, total filters) pre-dropout
    dropout_mask: np.ndarray | None  # (notes, total filters) keep mask, train mode only
    dropped: np.ndarray  # (notes, total filters) fed to the output layer
    probs: np.ndarray  # (notes, heads)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_f1: list[list[float | None]] = field(default_factory=list)


def init_model(config: CnnConfig, embeddings: EmbeddingMatrix) -> CnnModel:
    """Fresh model around a (copied) embedding table; uniform [-0.01, 0.01] weights."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    dim = embeddings.dim
    conv_weights = {}
    conv_biases = {}
    for w in config.filter_widths:
        conv_weights[w] = rng.uniform(
            -INIT_BOUND, INIT_BOUND, size=(config.filters_per_width, w, dim)
        )
        conv_biases[w] = np.zeros(config.filters_per_width)
    total = len(config.filter_widths) * config.filters_per_width
    output_weights = rng.uniform(-INIT_BOUND, INIT_BOUND, size=(config.n_heads, total))
    output_bias = np.zeros(config.n_heads)
    return CnnModel(
        embeddings=embeddings.copy(),
        conv_weights=conv_weights,
        conv_biases=conv_biases,
        output_weights=output_weights,
        output_bias=output_bias,
        config=config,
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def groups(model: CnnModel, id_lists: list[list[int]]) -> list[tuple[int, int]]:
    """Split a sequence of notes into consecutive [start, stop) groups.

    A group grows while its padded positions times the elements each position
    holds (one window per width, one activation per filter) stay within
    GROUP_ELEMENTS; a note that alone exceeds it forms its own group.
    """
    cfg = model.config
    max_width = max(cfg.filter_widths)
    per_position = model.total_filters + sum(cfg.filter_widths) * model.embeddings.dim
    bounds = []
    start, longest = 0, 0
    for i, ids in enumerate(id_lists):
        length = max(len(ids), max_width)
        if i > start and (i - start + 1) * max(longest, length) * per_position > GROUP_ELEMENTS:
            bounds.append((start, i))
            start, longest = i, 0
        longest = max(longest, length)
    if start < len(id_lists):
        bounds.append((start, len(id_lists)))
    return bounds


def _flat_windows(embedded: np.ndarray, width: int) -> np.ndarray:
    """Every width-long window of every note, one per row: (notes * windows, width * dim).

    In a C-ordered (notes, positions, dim) block, window t of a note is rows
    t..t+width-1, one contiguous run of width * dim values; a strided view
    reads each run in place and one reshape copies them out.
    """
    embedded = np.ascontiguousarray(embedded)
    n_notes, n_positions, dim = embedded.shape
    n_windows = n_positions - width + 1
    note_stride, position_stride, value_stride = embedded.strides
    runs = as_strided(embedded, shape=(n_notes, n_windows, width * dim),
                      strides=(note_stride, position_stride, value_stride), writeable=False)
    return runs.reshape(n_notes * n_windows, width * dim)


def activate(model: CnnModel, grid: np.ndarray, w: int) -> np.ndarray:
    """Post-activation values of a width-w pre-bias grid (filters on the last
    axis); -inf entries, the batch padding, stay -inf."""
    a = grid + model.conv_biases[w]
    a = np.tanh(a, out=a) if model.config.activation == "tanh" else np.maximum(a, 0.0, out=a)
    a[np.isneginf(grid)] = -np.inf
    return a


def forward_batch(
    model: CnnModel,
    id_lists: list[list[int]],
    dropout_draws: np.ndarray | None = None,
) -> BatchActivations:
    """Run the network on one group of id sequences, one GEMM per filter width.

    Each note is padded with PAD to the largest filter width, so every bank
    sees at least one window: a note's outputs are those it gets on its own.
    Each width's (filters, notes, windows) pre-activations are max-pooled
    before the bias and activation, which are monotone, are applied to the
    pooled values alone. Ties resolve to the first window; where two
    different pre-activations round to the same activated value, the larger
    one wins. Given dropout_draws, (notes, total filters) uniforms in [0, 1),
    inverted dropout (scaled by 1/(1-p)) drops the pooled values whose draw
    is below p. The caller bounds the group (see groups()).
    """
    if not id_lists or any(len(ids) == 0 for ids in id_lists):
        raise ValueError("cannot run the model on an empty token sequence")
    cfg = model.config
    nf = cfg.filters_per_width
    lengths = np.array([max(len(ids), max(cfg.filter_widths)) for ids in id_lists])
    n_notes, n_positions = len(id_lists), int(lengths.max())
    ids = np.full((n_notes, n_positions), PAD_ID, dtype=np.intp)
    for b, seq in enumerate(id_lists):
        ids[b, : len(seq)] = seq
    embedded = model.embeddings.vectors[ids]

    grids: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in cfg.filter_widths:
        p = n_positions - w + 1
        z = model.conv_weights[w].reshape(nf, -1) @ _flat_windows(embedded, w).T
        z = z.reshape(nf, n_notes, p)
        z[:, np.arange(p)[None, :] > (lengths - w)[:, None]] = -np.inf
        best = np.argmax(z, axis=2)  # (filters, notes)
        grids[w] = z.transpose(1, 2, 0)
        argmax[w] = best.T
        # z is C-ordered, so the (filter, note) row starts at flat index (f * notes + b) * p
        maxima = z.ravel()[np.arange(0, z.size, p) + best.ravel()].reshape(nf, n_notes)
        pooled_parts.append(activate(model, maxima.T, w))
    pooled = np.concatenate(pooled_parts, axis=1)

    if dropout_draws is None:
        mask = None
        dropped = pooled
    else:
        mask = (dropout_draws >= cfg.dropout_p).astype(float)
        dropped = pooled * mask / (1.0 - cfg.dropout_p)

    logits = dropped @ model.output_weights.T + model.output_bias
    return BatchActivations(
        ids=ids,
        lengths=lengths,
        embedded=embedded,
        grids=grids,
        argmax=argmax,
        pooled=pooled,
        dropout_mask=mask,
        dropped=dropped,
        probs=_sigmoid(logits),
    )


def forward_groups(
    model: CnnModel, id_lists: list[list[int]], draws: np.ndarray | None = None
):
    """Forward passes over id_lists, one bounded group at a time.

    Notes run in a stable order of length, so a group pads little. Yields
    (rows, BatchActivations), rows holding the input indices of the group's
    notes; only one group is alive at once. Without draws the passes run in
    eval mode; given draws, (notes, total filters) dropout uniforms in input
    order, each group's notes get their rows (see forward_batch).
    """
    order = np.argsort([len(ids) for ids in id_lists], kind="stable")
    by_length = [id_lists[i] for i in order]
    for lo, hi in groups(model, by_length):
        rows = order[lo:hi]
        yield rows, forward_batch(model, by_length[lo:hi], None if draws is None else draws[rows])


def forward(model: CnnModel, token_ids: list[int]) -> BatchActivations:
    """Run the network on one id sequence with dropout off: forward_batch on a
    group of one."""
    return forward_batch(model, [token_ids])


def _note_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-note mean over heads of binary cross-entropy, probabilities clamped.

    probs and labels are (notes, heads); returns (notes,).
    """
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=float)
    return np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)), axis=-1)


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over notes and heads of binary cross-entropy, probabilities clamped;
    probs is (heads,) or (notes, heads)."""
    return float(np.mean(_note_losses(probs, labels)))


def backward_batch(
    model: CnnModel,
    acts: BatchActivations,
    labels: np.ndarray,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Analytic gradients of the summed per-note loss() over one group.

    labels is (notes, heads). The gradients are added into grads when given
    (one dense embedding gradient then serves a whole optimizer step), or
    into fresh zero arrays. Gradient flows only through each filter's argmax
    window. dZ is scattered into one sparse (token positions, filter taps)
    matrix S, holding dZ[note, f] at the position of tap i of filter f's
    winning window, for every width. Then S^T @ embedded is every filter
    gradient and S @ W the gradient at every token position, which is added
    into the embedding table by token id.
    """
    cfg = model.config
    if grads is None:
        grads = {name: np.zeros_like(p) for name, p in model.parameters().items()}
    y = np.asarray(labels, dtype=float)
    d_logits = (acts.probs - y) / cfg.n_heads  # (notes, heads)
    grads["output_weights"] += d_logits.T @ acts.dropped
    grads["output_bias"] += d_logits.sum(axis=0)

    d_pooled = d_logits @ model.output_weights
    if acts.dropout_mask is not None:
        d_pooled = d_pooled * acts.dropout_mask / (1.0 - cfg.dropout_p)
    if cfg.activation == "tanh":
        dz = d_pooled * (1.0 - acts.pooled * acts.pooled)
    else:
        dz = d_pooled * (acts.pooled > 0.0)

    n_notes, n_positions, dim = acts.embedded.shape
    nf = cfg.filters_per_width
    note_starts = np.arange(n_notes) * n_positions
    values, positions = [], []
    for k, w in enumerate(cfg.filter_widths):
        dz_w = dz[:, k * nf : (k + 1) * nf].T  # (filters, notes)
        grads[f"conv_b{w}"] += dz_w.sum(axis=1)
        # column f * w + i of this width's block: tap i of filter f, one entry per note
        values.append(np.broadcast_to(dz_w[:, None, :], (nf, w, n_notes)).ravel())
        taps = acts.argmax[w].T[:, None, :] + np.arange(w)[None, :, None]
        positions.append((taps + note_starts).ravel())
    n_taps = nf * sum(cfg.filter_widths)
    scatter = sparse.csc_matrix(
        (np.concatenate(values), np.concatenate(positions),
         np.arange(0, n_taps * n_notes + 1, n_notes)),
        shape=(n_notes * n_positions, n_taps),
    )
    d_taps = scatter.T @ acts.embedded.reshape(-1, dim)  # (taps, dim)
    offset = 0
    for w in cfg.filter_widths:
        grads[f"conv_w{w}"] += d_taps[offset : offset + nf * w].reshape(nf, w, dim)
        offset += nf * w
    taps_weights = np.concatenate([model.conv_weights[w].reshape(nf * w, dim) for w in cfg.filter_widths])
    d_embedded = scatter @ taps_weights  # (notes * positions, dim)

    table = grads["embeddings"]
    np.add.at(table, acts.ids.ravel(), d_embedded)
    table[PAD_ID] = 0.0
    return grads


def backward(
    model: CnnModel, acts: BatchActivations, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of loss() for a one-note group, labels one (heads,)
    row (see backward_batch)."""
    return backward_batch(model, acts, np.asarray(labels, dtype=float)[None, :])


def apply_max_norm(emb: EmbeddingMatrix, max_norm: float) -> EmbeddingMatrix:
    """Rescale rows whose L2 norm exceeds max_norm back to exactly max_norm.

    Mutates and returns the given matrix; the PAD row is never touched.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    vectors = emb.vectors
    norms = np.linalg.norm(vectors, axis=1)
    over = norms > max_norm
    over[PAD_ID] = False
    if np.any(over):
        vectors[over] *= (max_norm / norms[over])[:, None]
    return emb


def train(
    model: CnnModel,
    train_data: list[tuple[list[int], np.ndarray]],
    val_data: list[tuple[list[int], np.ndarray]] | None = None,
    step_callback=None,
) -> tuple[CnnModel, TrainHistory]:
    """Mini-batch adadelta training; mutates and returns the model.

    train_data and val_data hold (token id sequence, per-head 0/1 label
    vector) pairs. Batches reshuffle every epoch under the config seed; each
    batch runs through the engine in a stable order of note length, in
    bounded groups whose gradients add into one step gradient. A batch's
    dropout uniforms are drawn at once and its per-note losses kept, both in
    note order. After every optimizer step the embedding max-norm constraint
    is re-applied and step_callback(model, epoch, step) fires if given.
    History records the mean train loss and per-head validation F1 of each
    epoch. The final-epoch model is returned (no early stopping).
    """
    cfg = model.config
    cfg.validate()
    for ids, labels in train_data:
        if len(labels) != cfg.n_heads:
            raise ValueError(
                f"example has {len(labels)} labels but the model has {cfg.n_heads} heads"
            )
    order_rng = np.random.default_rng([cfg.seed, 0xD47A])
    draw_rng = np.random.default_rng([cfg.seed, 0xD407])
    params = model.parameters()
    state = AdadeltaState.for_params(params)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(train_data))
        epoch_losses = []
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            labels = np.array([train_data[i][1] for i in batch], dtype=float)
            draws = None
            if cfg.dropout_p > 0.0:
                draws = draw_rng.random(len(batch) * model.total_filters).reshape(len(batch), -1)
            note_losses = np.empty(len(batch))
            grads = {name: np.zeros_like(p) for name, p in params.items()}
            for rows, acts in forward_groups(model, [train_data[i][0] for i in batch], draws):
                note_losses[rows] = _note_losses(acts.probs, labels[rows])
                backward_batch(model, acts, labels[rows], grads)
            epoch_losses.extend(note_losses)
            for g in grads.values():
                g /= len(batch)
            adadelta_step(params, grads, state, cfg.adadelta_rho, cfg.adadelta_eps)
            apply_max_norm(model.embeddings, cfg.max_norm)
            if step_callback is not None:
                step_callback(model, epoch, step)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_f1.append(_validation_f1(model, val_data) if val_data else None)
    return model, history


def _validation_f1(model, val_data) -> list[float | None]:
    _, preds = predict_batch(model, [ids for ids, _ in val_data])
    labels = np.array([y for _, y in val_data])
    return [
        f1(confusion([int(p) for p in preds[:, h]], [int(y) for y in labels[:, h]]))
        for h in range(model.config.n_heads)
    ]


def classify(model: CnnModel, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(clamped probabilities, 0/1 labels) from raw sigmoid outputs.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP], matching the
    loss convention; label = prob >= the config threshold, so a threshold
    above 1 - PROB_CLAMP never fires.
    """
    probs = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return probs, (probs >= model.config.threshold).astype(int)


def predict_batch(model: CnnModel, id_lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(notes, heads) probabilities and labels with dropout off (see classify).

    A note's outputs do not depend on which notes share its group.
    """
    probs = np.empty((len(id_lists), model.config.n_heads))
    for rows, acts in forward_groups(model, id_lists):
        probs[rows] = acts.probs
    return classify(model, probs)


def predict(model: CnnModel, token_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Per-head (probability, binary label) of one note with dropout off."""
    probs, labels = predict_batch(model, [token_ids])
    return probs[0], labels[0]
