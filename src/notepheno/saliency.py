"""Salient-phrase extraction from the convolutional layer.

Every width-w window of a document gets a score. The default "weighted"
scorer approximates how much the window contributed to the prediction:
activation times the head's output weight, summed over the filters whose
pooling argmax is this window. The alternative "norm" scorer is the plain L2
norm of the w-width filter bank's activations at the position; it is local to
the window but blind to what the output layer actually uses. Reports
aggregate the top-scoring phrases globally over positively-predicted
documents or locally per document.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cnn import BatchActivations, CnnModel, activate, classify, forward, forward_groups
from .corpus import PAD_TOKEN, Vocabulary

VARIANTS = ("weighted", "norm")


@dataclass
class PhraseScore:
    phrase: tuple[str, ...]
    width: int
    position: int
    score: float
    note_id: str = ""
    doc_index: int = 0  # the document's place in a global report's input; breaks full ties

    @property
    def text(self) -> str:
        return " ".join(self.phrase)


@dataclass
class SaliencyReport:
    scope: str  # "global" or "local"
    phenotype: str
    entries: list[PhraseScore] = field(default_factory=list)
    flagged_negative: bool = False  # local scope only: prediction was negative


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


def _window_values(
    model: CnnModel, acts: BatchActivations, variant: str, head: int
) -> dict[int, np.ndarray]:
    """Per width, a (notes, windows) score grid for every note of a group.

    "weighted": each filter adds activation times the head's output weight at
    its argmax window (accumulated in filter order), clipped at zero. "norm":
    the L2 norm of the width's filter activations at each window.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    nf = model.config.filters_per_width
    values = {}
    for k, w in enumerate(model.config.filter_widths):
        grid = acts.grids[w]  # (notes, windows, filters) pre-bias
        n_notes, n_windows, _ = grid.shape
        if variant == "norm":
            values[w] = np.linalg.norm(activate(model, grid, w), axis=2)
            continue
        contrib = acts.pooled[:, k * nf : (k + 1) * nf] * model.output_weights[head, k * nf : (k + 1) * nf]
        rows = np.arange(n_notes)[:, None] * n_windows + acts.argmax[w]
        summed = np.bincount(rows.ravel(), contrib.ravel(), minlength=n_notes * n_windows)
        values[w] = np.maximum(summed.reshape(n_notes, n_windows), 0.0)
    return values


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
    acts = forward(model, vocab.resolve(tokens))
    return _note_scores(acts, _window_values(model, acts, variant, head), 0, tokens, note_id)


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

    documents holds (note_id, tokens) pairs; empty documents are skipped, and
    only documents the model labels positive for the given head contribute,
    scored from the same forward pass that predicted them. Duplicate phrase
    strings keep their maximum score; entries that tie on score, width,
    position and note id rank in the order of their documents in the input.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    documents = [(note_id, tokens) for note_id, tokens in documents if tokens]
    # The deduplicated top k of the documents seen so far (groups arrive in
    # length order). A phrase of the overall top k has fewer than k better
    # distinct phrases among any subset of the documents, so it survives
    # every cut, and memory stays bounded.
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


def local_salient_phrases(
    model: CnnModel,
    vocab: Vocabulary,
    note_id: str,
    tokens: list[str],
    phenotype: str,
    head: int,
    k: int,
    variant: str = "weighted",
) -> SaliencyReport:
    """Top-k deduplicated phrases of a single document, whatever its prediction."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    acts = forward(model, vocab.resolve(tokens))
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


def report_to_tsv(report: SaliencyReport) -> str:
    lines = ["rank\tphrase\twidth\tscore"]
    for rank, entry in enumerate(report.entries, start=1):
        lines.append(f"{rank}\t{entry.text}\t{entry.width}\t{entry.score!r}")
    return "\n".join(lines) + "\n"


def report_to_json(report: SaliencyReport) -> dict:
    return {
        "format_version": 1,
        "scope": report.scope,
        "phenotype": report.phenotype,
        "flagged_negative": report.flagged_negative,
        "entries": [
            {
                "rank": rank,
                "phrase": entry.text,
                "width": entry.width,
                "position": entry.position,
                "score": entry.score,
                "note_id": entry.note_id,
            }
            for rank, entry in enumerate(report.entries, start=1)
        ],
    }


def save_report(report: SaliencyReport, tsv_path: str | Path, json_path: str | Path | None = None):
    Path(tsv_path).write_text(report_to_tsv(report), encoding="utf-8")
    if json_path is not None:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report_to_json(report), fh, sort_keys=True, indent=2)
            fh.write("\n")
