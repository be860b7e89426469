"""The per-example CNN code the batched engine replaced, kept as a test oracle.

forward, backward, train (with its validation and predict) and the saliency
phrase_scores / global_top_phrases loop below are the one-note-at-a-time
implementations, unchanged apart from imports. tests/test_cnn_engine.py
checks the engine in notepheno.cnn and notepheno.saliency against them.

The second half keeps earlier forms of the batched engine that must give
bit-identical results: forward_batch_reference (windows gathered with
sliding_window_view, padding set by a boolean mask, maxima read with
take_along_axis) and the list-based top-k explain paths, which build one
PhraseScore per window of the engine's score grids (_note_scores) and sort
them with a Python key.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from notepheno.cnn import (
    PROB_CLAMP,
    BatchActivations,
    CnnModel,
    TrainHistory,
    activate,
    apply_max_norm,
    classify,
    forward_groups,
)
from notepheno.cnn import forward as engine_forward
from notepheno.corpus import PAD_ID, PAD_TOKEN, Vocabulary
from notepheno.metrics import confusion, f1
from notepheno.optim import AdadeltaState, adadelta_step
from notepheno.saliency import VARIANTS, PhraseScore, SaliencyReport, _window_values


@dataclass
class Activations:
    """Everything the forward pass computes, cached for backprop and saliency."""

    padded_ids: list[int]
    embedded: np.ndarray  # (length, dim)
    grids: dict[int, np.ndarray]  # width -> (positions, filters) post-activation
    argmax: dict[int, np.ndarray]  # width -> (filters,) winning positions
    pooled: np.ndarray  # (total filters,) pre-dropout
    dropout_mask: np.ndarray | None  # (total filters,) keep mask, train mode only
    dropped: np.ndarray  # (total filters,) vector fed to the output layer
    probs: np.ndarray  # (heads,)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _windows(embedded: np.ndarray, width: int) -> np.ndarray:
    """All contiguous width-long stacks of rows: (positions, width, dim)."""
    positions = embedded.shape[0] - width + 1
    return np.stack([embedded[i : positions + i] for i in range(width)], axis=1)


def pad_ids(token_ids: list[int], max_width: int) -> list[int]:
    """Pad with PAD up to the largest filter width so every bank sees >= 1 window."""
    if len(token_ids) >= max_width:
        return list(token_ids)
    return list(token_ids) + [PAD_ID] * (max_width - len(token_ids))


def forward(
    model: CnnModel,
    token_ids: list[int],
    train_mode: bool = False,
    dropout_rng: np.random.Generator | None = None,
) -> Activations:
    """Run the network on one id sequence.

    In train mode, inverted dropout (scaled by 1/(1-p)) is applied to the
    pooled vector using the supplied generator. Ties in max pooling resolve to
    the first position.
    """
    if not token_ids:
        raise ValueError("cannot run the model on an empty token sequence")
    cfg = model.config
    ids = pad_ids(token_ids, max(cfg.filter_widths))
    embedded = model.embeddings.vectors[ids]

    grids: dict[int, np.ndarray] = {}
    argmax: dict[int, np.ndarray] = {}
    pooled_parts = []
    for w in cfg.filter_widths:
        windows = _windows(embedded, w)  # (P, w, dim)
        p = windows.shape[0]
        flat = windows.reshape(p, -1)
        z = flat @ model.conv_weights[w].reshape(cfg.filters_per_width, -1).T
        z += model.conv_biases[w]
        a = np.tanh(z) if cfg.activation == "tanh" else np.maximum(z, 0.0)
        grids[w] = a
        argmax[w] = np.argmax(a, axis=0)
        pooled_parts.append(a[argmax[w], np.arange(cfg.filters_per_width)])
    pooled = np.concatenate(pooled_parts)

    if train_mode and cfg.dropout_p > 0.0:
        if dropout_rng is None:
            raise ValueError("train-mode forward with dropout needs a dropout_rng")
        mask = (dropout_rng.random(pooled.shape[0]) >= cfg.dropout_p).astype(float)
        dropped = pooled * mask / (1.0 - cfg.dropout_p)
    else:
        mask = None
        dropped = pooled

    logits = model.output_weights @ dropped + model.output_bias
    probs = _sigmoid(logits)
    return Activations(
        padded_ids=ids,
        embedded=embedded,
        grids=grids,
        argmax=argmax,
        pooled=pooled,
        dropout_mask=mask,
        dropped=dropped,
        probs=probs,
    )


def loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean over heads of binary cross-entropy, with probabilities clamped."""
    p = np.clip(probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    y = np.asarray(labels, dtype=float)
    return float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))


def backward(
    model: CnnModel, acts: Activations, labels: np.ndarray
) -> dict[str, np.ndarray]:
    """Analytic gradients of loss() wrt every trainable parameter.

    Gradient flows only through each filter's argmax window, so embedding
    gradients accumulate only at token positions inside winning windows.
    """
    cfg = model.config
    n_heads = cfg.n_heads
    y = np.asarray(labels, dtype=float)
    d_logits = (acts.probs - y) / n_heads

    grads: dict[str, np.ndarray] = {
        "output_weights": np.outer(d_logits, acts.dropped),
        "output_bias": d_logits.copy(),
    }

    d_dropped = model.output_weights.T @ d_logits
    if acts.dropout_mask is not None:
        d_pooled = d_dropped * acts.dropout_mask / (1.0 - cfg.dropout_p)
    else:
        d_pooled = d_dropped

    d_embedded = np.zeros_like(acts.embedded)
    nf = cfg.filters_per_width
    offset = 0
    for w in cfg.filter_widths:
        d_pool_w = d_pooled[offset : offset + nf]
        offset += nf
        starts = acts.argmax[w]
        a_star = acts.grids[w][starts, np.arange(nf)]
        if cfg.activation == "tanh":
            dz = d_pool_w * (1.0 - a_star * a_star)
        else:
            dz = d_pool_w * (a_star > 0.0)
        idx = starts[:, None] + np.arange(w)[None, :]  # (filters, width) row indices
        grads[f"conv_w{w}"] = dz[:, None, None] * acts.embedded[idx]
        grads[f"conv_b{w}"] = dz
        np.add.at(d_embedded, idx, dz[:, None, None] * model.conv_weights[w])

    d_emb_table = np.zeros_like(model.embeddings.vectors)
    np.add.at(d_emb_table, acts.padded_ids, d_embedded)
    d_emb_table[PAD_ID] = 0.0
    grads["embeddings"] = d_emb_table
    return grads


def _zero_grads_like(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def train(
    model: CnnModel,
    train_data: list[tuple[list[int], np.ndarray]],
    val_data: list[tuple[list[int], np.ndarray]] | None = None,
    step_callback=None,
) -> tuple[CnnModel, TrainHistory]:
    """Mini-batch adadelta training; mutates and returns the model.

    train_data and val_data hold (token id sequence, per-head 0/1 label
    vector) pairs. Batches reshuffle every epoch under the config seed; after
    every optimizer step the embedding max-norm constraint is re-applied and
    step_callback(model, epoch, step) fires if given. History records the
    mean train loss and per-head validation F1 of each epoch. The final-epoch
    model is returned (no early stopping).
    """
    cfg = model.config
    cfg.validate()
    for ids, labels in train_data:
        if len(labels) != cfg.n_heads:
            raise ValueError(
                f"example has {len(labels)} labels but the model has {cfg.n_heads} heads"
            )
    order_rng = np.random.default_rng([cfg.seed, 0xD47A])
    dropout_rng = np.random.default_rng([cfg.seed, 0xD407])
    params = model.parameters()
    state = AdadeltaState.for_params(params)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        order = order_rng.permutation(len(train_data))
        epoch_losses = []
        for step, start in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[start : start + cfg.batch_size]
            grad_sum = _zero_grads_like(params)
            for i in batch:
                ids, labels = train_data[i]
                acts = forward(model, ids, train_mode=True, dropout_rng=dropout_rng)
                epoch_losses.append(loss(acts.probs, labels))
                for name, g in backward(model, acts, labels).items():
                    grad_sum[name] += g
            for name in grad_sum:
                grad_sum[name] /= len(batch)
            adadelta_step(params, grad_sum, state, cfg.adadelta_rho, cfg.adadelta_eps)
            apply_max_norm(model.embeddings, cfg.max_norm)
            if step_callback is not None:
                step_callback(model, epoch, step)
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_f1.append(_validation_f1(model, val_data) if val_data else None)
    return model, history


def _validation_f1(model, val_data) -> list[float | None]:
    preds = np.array([predict(model, ids)[1] for ids, _ in val_data])
    labels = np.array([y for _, y in val_data])
    return [
        f1(confusion([int(p) for p in preds[:, h]], [int(y) for y in labels[:, h]]))
        for h in range(model.config.n_heads)
    ]


def predict(
    model: CnnModel, token_ids: list[int], threshold: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-head (probability, binary label) with dropout off; label = prob >= threshold.

    Probabilities are clamped to [PROB_CLAMP, 1 - PROB_CLAMP], matching the
    loss convention, so a threshold of 1.0 can never fire.
    """
    if threshold is None:
        threshold = model.config.threshold
    acts = forward(model, token_ids, train_mode=False)
    probs = np.clip(acts.probs, PROB_CLAMP, 1.0 - PROB_CLAMP)
    labels = (probs >= threshold).astype(int)
    return probs, labels


def phrase_scores(
    model: CnnModel,
    vocab: Vocabulary,
    tokens: list[str],
    note_id: str = "",
    variant: str = "weighted",
    head: int = 0,
) -> list[PhraseScore]:
    """Score every (width, position) window of one document.

    The "weighted" variant sums activation times the head's output weight
    over the filters whose argmax is this window, clipped at zero; it
    approximates the window's contribution to the prediction. The "norm"
    variant is the L2 norm across the same-width filters' activations at the
    window, regardless of pooling.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if not tokens:
        raise ValueError("cannot score an empty token sequence")
    ids = vocab.resolve(tokens)
    acts = forward(model, ids, train_mode=False)
    display = list(tokens) + [PAD_TOKEN] * (len(acts.padded_ids) - len(tokens))

    cfg = model.config
    nf = cfg.filters_per_width
    scores: list[PhraseScore] = []
    offset = 0
    for w in cfg.filter_widths:
        grid = acts.grids[w]  # (positions, filters)
        if variant == "norm":
            values = np.linalg.norm(grid, axis=1)
        else:
            head_w = model.output_weights[head, offset : offset + nf]
            values = np.zeros(grid.shape[0])
            for f in range(nf):
                pos = acts.argmax[w][f]
                values[pos] += grid[pos, f] * head_w[f]
            values = np.maximum(values, 0.0)
        for i in range(grid.shape[0]):
            scores.append(
                PhraseScore(
                    phrase=tuple(display[i : i + w]),
                    width=w,
                    position=i,
                    score=float(values[i]),
                    note_id=note_id,
                )
            )
        offset += nf
    return scores


def global_top_phrases(
    model: CnnModel,
    vocab: Vocabulary,
    documents: list[tuple[str, list[str]]],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """Top-k deduplicated phrases pooled over positively-predicted documents.

    documents holds (note_id, tokens) pairs; only documents the model labels
    positive for the given head contribute. Duplicate phrase strings keep
    their maximum score.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pooled: list[PhraseScore] = []
    any_positive = False
    for note_id, tokens in documents:
        if not tokens:
            continue
        _, labels = predict(model, vocab.resolve(tokens))
        if labels[head] != 1:
            continue
        any_positive = True
        pooled.extend(phrase_scores(model, vocab, tokens, note_id, variant, head))
    if not any_positive:
        warnings.warn(
            f"no document was predicted positive for {phenotype!r}; empty saliency report"
        )
    entries = _dedup_top_k(pooled, k)
    if entries and entries[0].score == 0.0:
        warnings.warn(f"all phrase scores for {phenotype!r} are zero")
    return SaliencyReport(scope="global", phenotype=phenotype, entries=entries)


# --------------------------------------------------------------------------
# Earlier forms of the batched engine, kept as bit-exact references.
# --------------------------------------------------------------------------
def _flat_windows_reference(embedded: np.ndarray, width: int) -> np.ndarray:
    """Every width-long window of every note, one per row: (notes * windows, width * dim)."""
    n_notes, n_positions, dim = embedded.shape
    stacked = sliding_window_view(embedded, width, axis=1)  # (notes, windows, dim, width)
    return stacked.transpose(0, 1, 3, 2).reshape(n_notes * (n_positions - width + 1), width * dim)


def forward_batch_reference(
    model: CnnModel,
    id_lists: list[list[int]],
    dropout_draws: np.ndarray | None = None,
) -> BatchActivations:
    """notepheno.cnn.forward_batch as it was before its windows became
    contiguous-run views and its max-pool a flat gather."""
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
        z = model.conv_weights[w].reshape(nf, -1) @ _flat_windows_reference(embedded, w).T
        z = z.reshape(nf, n_notes, p)
        z[:, np.arange(p)[None, :] > (lengths - w)[:, None]] = -np.inf
        best = np.argmax(z, axis=2)  # (filters, notes)
        grids[w] = z.transpose(1, 2, 0)
        argmax[w] = best.T
        maxima = np.take_along_axis(z, best[:, :, None], axis=2)[:, :, 0]
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


def _note_scores(
    acts: BatchActivations,
    values: dict[int, np.ndarray],
    row: int,
    tokens: list[str],
    note_id: str,
    doc_index: int = 0,
) -> list[PhraseScore]:
    """PhraseScores of every (width, window) of note `row` of a group."""
    length = int(acts.lengths[row])
    display = list(tokens) + [PAD_TOKEN] * (length - len(tokens))
    scores: list[PhraseScore] = []
    for w, grid in values.items():
        note_values = grid[row].tolist()
        for i in range(length - w + 1):
            scores.append(
                PhraseScore(
                    phrase=tuple(display[i : i + w]),
                    width=w,
                    position=i,
                    score=note_values[i],
                    note_id=note_id,
                    doc_index=doc_index,
                )
            )
    return scores


def _sort_entries(entries: list[PhraseScore]) -> list[PhraseScore]:
    return sorted(entries, key=lambda e: (-e.score, e.width, e.position, e.note_id, e.doc_index))


def _dedup_top_k(entries: list[PhraseScore], k: int) -> list[PhraseScore]:
    """Keep the best-scoring entry per exact phrase string, then the top k.

    Windows that reach into the padding are dropped: reports list real
    phrases only. Entries are visited in report order, so the first k
    distinct phrases are the answer, already sorted.
    """
    best: dict[str, PhraseScore] = {}
    for entry in _sort_entries(entries):
        if PAD_TOKEN in entry.phrase:
            continue
        best.setdefault(entry.text, entry)
        if len(best) == k:
            break
    return list(best.values())


def global_top_phrases_listed(
    model: CnnModel,
    vocab: Vocabulary,
    documents: list[tuple[str, list[str]]],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """notepheno.saliency.global_top_phrases as it was when it ranked a list
    of PhraseScores, one per window, group by group."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    documents = [(note_id, tokens) for note_id, tokens in documents if tokens]
    entries: list[PhraseScore] = []
    any_positive = False
    for rows, acts in forward_groups(model, [vocab.resolve(tokens) for _, tokens in documents]):
        _, labels = classify(model, acts.probs)
        positives = np.flatnonzero(labels[:, head] == 1)
        if positives.size == 0:
            continue
        any_positive = True
        values = _window_values(model, acts, variant, head)
        pooled = list(entries)
        for row in positives:
            doc_index = int(rows[row])
            note_id, tokens = documents[doc_index]
            pooled.extend(_note_scores(acts, values, row, tokens, note_id, doc_index))
        entries = _dedup_top_k(pooled, k)
    if not any_positive:
        warnings.warn(
            f"no document was predicted positive for {phenotype!r}; empty saliency report"
        )
    if entries and entries[0].score == 0.0:
        warnings.warn(f"all phrase scores for {phenotype!r} are zero")
    return SaliencyReport(scope="global", phenotype=phenotype, entries=entries)


def local_salient_phrases_listed(
    model: CnnModel,
    vocab: Vocabulary,
    note_id: str,
    tokens: list[str],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """notepheno.saliency.local_salient_phrases as it was when it ranked a
    list of PhraseScores, one per window."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acts = engine_forward(model, vocab.resolve(tokens))
    _, labels = classify(model, acts.probs)
    flagged = bool(labels[0, head] != 1)
    if flagged:
        warnings.warn(
            f"note {note_id!r} is predicted negative for {phenotype!r}; "
            "report flagged accordingly"
        )
    values = _window_values(model, acts, variant, head)
    entries = _dedup_top_k(_note_scores(acts, values, 0, tokens, note_id), k)
    if entries and entries[0].score == 0.0:
        warnings.warn(f"all phrase scores for {phenotype!r} are zero")
    return SaliencyReport(
        scope="local",
        phenotype=phenotype,
        entries=entries,
        flagged_negative=flagged,
    )
